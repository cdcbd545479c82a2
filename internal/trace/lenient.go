package trace

// Lenient parsing. Real metadata feeds on billion-entry namespaces
// arrive imperfect: truncated gzip streams from interrupted scans,
// malformed rows from concurrent writers, names that never made it
// into the user table. The strict readers abort a year-long replay on
// the first bad line; ReadOptions{Lenient: true} instead quarantines
// malformed lines into a structured ParseReport — file, line, reason —
// salvages every complete record from a truncated stream, and only
// gives up when the error count shows the feed is garbage rather than
// merely scuffed.

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// ReadOptions controls reader strictness.
type ReadOptions struct {
	// Lenient quarantines malformed lines into the ParseReport
	// instead of aborting, and salvages complete records from
	// truncated (e.g. cut-short gzip) inputs.
	Lenient bool
	// MaxErrors caps quarantined lines per file in lenient mode;
	// exceeding the cap aborts the read (the feed is presumed
	// corrupt, not scuffed). Zero or negative selects
	// DefaultMaxErrors.
	MaxErrors int
	// Sequential selects the original single-goroutine readers
	// instead of the pipelined ones (pipeline.go). Both paths produce
	// bit-identical records, reports, and errors — the equivalence
	// tests enforce it — and the sequential readers serve as the
	// reference the pipelined decoder is fuzzed against.
	Sequential bool
	// SkipSnapshot leaves the metadata snapshot unread: Dataset.Snapshot
	// stays zero and the caller supplies the initial file-system state
	// some other way (e.g. a binary snapfile opened through the vfs
	// package). The snapshot TSV is by far the largest dataset file, so
	// skipping its parse is what makes snapfile-backed startup O(1).
	SkipSnapshot bool
}

// DefaultMaxErrors is the lenient-mode quarantine cap when
// ReadOptions.MaxErrors is unset.
const DefaultMaxErrors = 1000

// maxErrors resolves the effective cap.
func (o ReadOptions) maxErrors() int {
	if o.MaxErrors > 0 {
		return o.MaxErrors
	}
	return DefaultMaxErrors
}

// ParseError records one quarantined line.
type ParseError struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Reason string `json:"reason"`
}

// String renders the quarantined line as one report row.
func (e ParseError) String() string {
	return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Reason)
}

// ParseReport is the structured outcome of one lenient read.
type ParseReport struct {
	// File is the logical trace file name.
	File string `json:"file"`
	// Lines counts the data lines consumed (quarantined included,
	// blank and comment lines excluded).
	Lines int `json:"lines"`
	// Errors lists the quarantined lines, at most MaxErrors of them.
	Errors []ParseError `json:"errors,omitempty"`
	// Truncated marks an input that ended mid-stream (typically a
	// cut-short gzip member); all records before the cut were
	// salvaged.
	Truncated bool `json:"truncated,omitempty"`
}

// Clean reports whether the read consumed the whole input without
// quarantining anything. A nil report (strict read) is clean.
func (r *ParseReport) Clean() bool {
	return r == nil || (len(r.Errors) == 0 && !r.Truncated)
}

// Summary renders the report in one line.
func (r *ParseReport) Summary() string {
	if r.Clean() {
		return fmt.Sprintf("%s: clean (%d lines)", r.File, r.Lines)
	}
	s := fmt.Sprintf("%s: %d lines, %d quarantined", r.File, r.Lines, len(r.Errors))
	if r.Truncated {
		s += ", input truncated"
	}
	return s
}

// quarantine handles one malformed line: strict mode aborts with the
// reader's positioned error, lenient mode records the bare reason
// until the cap is hit. A non-nil return means the read must stop.
func (r *ParseReport) quarantine(ls *lineScanner, opts ReadOptions, reason error) error {
	return r.quarantineAt(ls.name, ls.line, opts, reason.Error())
}

// quarantineAt is quarantine positioned by file name and line number
// instead of a live scanner, so the pipeline assembler (which replays
// worker events long after the lines were scanned) shares the exact
// strict-abort and cap-exceeded semantics and messages.
func (r *ParseReport) quarantineAt(name string, line int, opts ReadOptions, reason string) error {
	if !opts.Lenient {
		return fmt.Errorf("trace: %s line %d: %s", name, line, reason)
	}
	max := opts.maxErrors()
	if len(r.Errors) >= max {
		return fmt.Errorf("trace: %s: more than %d malformed lines, giving up (last: line %d: %v)",
			name, max, line, reason)
	}
	r.Errors = append(r.Errors, ParseError{File: name, Line: line, Reason: reason})
	return nil
}

// finish folds the scanner's terminal error into the report: lenient
// mode converts a truncated stream into ParseReport.Truncated (the
// records already parsed are kept); everything else stays fatal.
func (r *ParseReport) finish(ls *lineScanner, opts ReadOptions) error {
	err := ls.s.Err()
	if err == nil {
		return nil
	}
	return r.finishAt(ls.name, ls.line, opts, err)
}

// finishAt is finish positioned by file name and scanned-line count,
// the assembler-side twin of quarantineAt.
func (r *ParseReport) finishAt(name string, lines int, opts ReadOptions, err error) error {
	if opts.Lenient && isTruncation(err) {
		r.Truncated = true
		return nil
	}
	return fmt.Errorf("trace: %s line %d: %w", name, lines+1, err)
}

// isTruncation recognizes an input cut short mid-stream: the flate
// layer reports unexpected EOF, and a gzip member whose trailer was
// clipped after the data fails its checksum read.
func isTruncation(err error) bool {
	return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, gzip.ErrChecksum)
}

// DatasetReport aggregates the per-file reports of one lenient
// dataset load.
type DatasetReport struct {
	Reports []*ParseReport
}

// Errors sums quarantined lines across all files.
func (d *DatasetReport) Errors() int {
	if d == nil {
		return 0
	}
	n := 0
	for _, r := range d.Reports {
		n += len(r.Errors)
	}
	return n
}

// Truncated reports whether any input ended mid-stream.
func (d *DatasetReport) Truncated() bool {
	if d == nil {
		return false
	}
	for _, r := range d.Reports {
		if r.Truncated {
			return true
		}
	}
	return false
}

// Clean reports whether every file loaded without quarantines.
func (d *DatasetReport) Clean() bool {
	if d == nil {
		return true
	}
	for _, r := range d.Reports {
		if !r.Clean() {
			return false
		}
	}
	return true
}

// Summary renders the non-clean per-file summaries, one per line.
func (d *DatasetReport) Summary() string {
	if d.Clean() {
		return "dataset: clean"
	}
	var b strings.Builder
	for _, r := range d.Reports {
		if r.Clean() {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(r.Summary())
	}
	return b.String()
}
