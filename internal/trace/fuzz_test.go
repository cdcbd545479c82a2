package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// The readers must never panic on arbitrary input — a malformed line
// yields an error (strict) or a quarantine entry (lenient), nothing
// else. Run with `go test -fuzz FuzzReaders` for continuous fuzzing;
// the seeds below run in normal test mode.

func FuzzReaders(f *testing.F) {
	seeds := []string{
		"",
		"u000\t100\tpower\n",
		"u000\t1\t2\t3\n",
		"1\tu000\t0\t5\t/p\n",
		"1\t2\tu000,u001\n",
		"#taken\t99\nu000\t1\t2\t3\t/p\n",
		"1\tu000\n",
		"1\tu000\tin\t5\n",
		"\t\t\t\t\n",
		"u000\t" + strings.Repeat("9", 30) + "\n", // overflow timestamp
		"u000\t100\tx\ty\tz\n",
		"#taken\tzzz\nu000\t1\t2\t3\t/p\n", // bad header, good row
		strings.Repeat("garbage\n", 12),    // more bad lines than maxErr
	}
	for _, s := range seeds {
		f.Add(s)
	}
	idx := map[string]UserID{"u000": 0, "u001": 1}
	const maxErr = 8
	lenient := ReadOptions{Lenient: true, MaxErrors: maxErr}

	// check runs one reader in strict and lenient mode against the
	// same input and enforces the cross-mode invariants: a lenient
	// success quarantines at most MaxErrors lines, and a strict
	// success implies a clean lenient report with the identical
	// result.
	check := func(t *testing.T, name string, strictVal any, strictErr error, lenVal any, rep *ParseReport, lenErr error) {
		t.Helper()
		if lenErr == nil && len(rep.Errors) > maxErr {
			t.Fatalf("%s: lenient read kept %d quarantined lines, cap is %d", name, len(rep.Errors), maxErr)
		}
		if strictErr != nil {
			return
		}
		if lenErr != nil {
			t.Fatalf("%s: strict succeeded but lenient failed: %v", name, lenErr)
		}
		if !rep.Clean() {
			t.Fatalf("%s: strict succeeded but lenient report dirty: %s", name, rep.Summary())
		}
		if !reflect.DeepEqual(strictVal, lenVal) {
			t.Fatalf("%s: strict and lenient disagree on clean input", name)
		}
	}

	f.Fuzz(func(t *testing.T, input string) {
		r := func() *strings.Reader { return strings.NewReader(input) }

		su, _, serr := readRows(r(), nil, ReadOptions{}, userSpec)
		lu, urep, lerr := readRows(r(), nil, lenient, userSpec)
		check(t, "users", su, serr, lu, urep, lerr)

		sj, _, serr := readRows(r(), idx, ReadOptions{}, jobSpec)
		lj, jrep, lerr := readRows(r(), idx, lenient, jobSpec)
		check(t, "jobs", sj, serr, lj, jrep, lerr)

		sa, _, serr := readRows(r(), idx, ReadOptions{}, accessSpec)
		la, arep, lerr := readRows(r(), idx, lenient, accessSpec)
		check(t, "accesses", sa, serr, la, arep, lerr)

		sp, _, serr := readRows(r(), idx, ReadOptions{}, pubSpec)
		lp, prep, lerr := readRows(r(), idx, lenient, pubSpec)
		check(t, "publications", sp, serr, lp, prep, lerr)

		ss, _, serr := readSnapshot(r(), idx, ReadOptions{})
		lsnap, srep, lerr := readSnapshot(r(), idx, lenient)
		check(t, "snapshot", ss, serr, lsnap, srep, lerr)

		sl, _, serr := readRows(r(), idx, ReadOptions{}, loginSpec)
		ll, lrep, lerr := readRows(r(), idx, lenient, loginSpec)
		check(t, "logins", sl, serr, ll, lrep, lerr)

		st, _, serr := readRows(r(), idx, ReadOptions{}, transferSpec)
		lt, trep, lerr := readRows(r(), idx, lenient, transferSpec)
		check(t, "transfers", st, serr, lt, trep, lerr)
	})
}

// framingSpec is a trace kind that rejects every data line with the
// line itself as the reason, so a lenient read's quarantine list is
// exactly the (line number, line) sequence the pipeline framed.
var framingSpec = rowSpec[string]{name: "framing",
	parse: func(_ *decoder, line []byte, _ map[string]UserID) (string, error) {
		return "", errors.New(string(line))
	}}

// scanFraming is the framing reference: bufio.Scanner with a 64 KiB
// initial buffer capped at maxLineBytes, blank and '#' lines skipped,
// every other line reported with its 1-based number, and a terminal
// error positioned at the line after the last one scanned.
func scanFraming(r io.Reader) ([]ParseError, error) {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	var lines []ParseError
	n := 0
	for s.Scan() {
		n++
		if line := s.Text(); line != "" && line[0] != '#' {
			lines = append(lines, ParseError{File: framingSpec.name, Line: n, Reason: line})
		}
	}
	if err := s.Err(); err != nil {
		return lines, fmt.Errorf("trace: %s line %d: %w", framingSpec.name, n+1, err)
	}
	return lines, nil
}

var errFramingRead = errors.New("read failed")

// FuzzPipelineEquivalence holds the pipeline's line framing to
// scanFraming on arbitrary input: CR stripping, unterminated final
// lines, blank and comment skipping, line numbering and the terminal
// error, both over the whole input and over a reader that fails after
// failAt bytes. The per-kind row decoders keep their own oracles
// (FuzzSplitTabs, FuzzParseIntBytes, TestMalformedLineReasons).
func FuzzPipelineEquivalence(f *testing.F) {
	seeds := []string{
		"",
		"u000\t100\tpower\n",
		"1\tu000\t0\t5\t/p\n",
		"#taken\t99\nu000\t1\t2\t3\t/p\n#taken\t7\n",
		"#taken\tzzz\nu000\t1\t2\t3\t/p\n",
		"good\tline\r\n\r\n# comment\nu000\t5",
		strings.Repeat("garbage\n", 12),
		strings.Repeat("u000\t7\n", 500),
		"\r\r\n\n\r",
		"no newline at all",
	}
	for i, s := range seeds {
		f.Add(s, uint16(3*i))
	}
	f.Fuzz(func(t *testing.T, input string, failAt uint16) {
		check := func(what string, open func() io.Reader) {
			want, wantErr := scanFraming(open())
			opts := ReadOptions{Lenient: true, MaxErrors: len(input) + 1}
			_, _, rep, err := readPipelined(open(), nil, opts, 0, framingSpec)
			if errText(err) != errText(wantErr) {
				t.Fatalf("%s: err = %v, want %v", what, err, wantErr)
			}
			if !reflect.DeepEqual(rep.Errors, want) || rep.Lines != len(want) {
				t.Fatalf("%s: framed %d lines %+v, want %+v", what, rep.Lines, rep.Errors, want)
			}
		}
		check("whole input", func() io.Reader { return strings.NewReader(input) })
		cut := int(failAt) % (len(input) + 1)
		check(fmt.Sprintf("read failing after %d bytes", cut), func() io.Reader {
			return io.MultiReader(strings.NewReader(input[:cut]), iotest.ErrReader(errFramingRead))
		})
	})
}
