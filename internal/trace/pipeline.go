package trace

// Pipelined trace ingestion, the one read path for every trace kind.
// Each file runs two stages: a reader goroutine inflates the stream
// into pooled line blocks, and the calling goroutine decodes the
// sealed blocks in input order with the file's one decoder
// (decode.go). Decode overlaps gzip inflation, and across files other
// files' readers and decoders (runFiles). Because blocks decode in
// order, every per-line outcome applies at the line where it occurs:
// records append straight into the output slice, and quarantines,
// #taken headers, MaxErrors aborts and truncated-input salvage land in
// the ParseReport exactly as a line-by-line read would have them.
// pipeline_test.go pins those outcomes (expect_test.go holds them).
//
// Scanner parity is the load-bearing invariant: lines are framed
// exactly as bufio.Scanner with a 64 KiB initial buffer capped at
// maxLineBytes frames them, which FuzzPipelineEquivalence checks
// against such a scanner. bufio.Scanner (a) splits on '\n' and drops
// one trailing '\r', (b) emits a final unterminated line, (c) on a
// non-EOF read error emits every buffered complete line plus the
// trailing partial before surfacing the error at line scanned+1, and
// (d) fails with bufio.ErrTooLong when a single line reaches
// maxLineBytes. The reader goroutine reproduces all four: blocks are
// sealed at the last newline with the partial tail carried into the
// next block, buffered bytes are flushed as a final block on EOF or
// read error, and a carry that reaches maxLineBytes without a newline
// (or a block whose first line does) aborts with ErrTooLong before the
// read error is ever observed, exactly as the scanner's full-buffer
// check fires before its next Read.

import (
	"bufio"
	"bytes"
	"io"
	"slices"
	"sync"
)

const (
	// pipeBlockSize is the sealed-block target. Big enough that
	// per-block channel traffic is noise next to parse cost, small
	// enough that the in-flight arenas stay cache-friendly.
	pipeBlockSize = 512 << 10
	// pipeArenas is how many arenas one file's read holds at most: one
	// filling, one queued, one decoding.
	pipeArenas = 3
	// maxLineBytes is the longest line a trace file may hold, the
	// bufio.Scanner buffer cap the framing reproduces: a line whose
	// content reaches this length is an ErrTooLong.
	maxLineBytes = 4 * 1024 * 1024
)

var takenPrefix = []byte("#taken\t")

// arenaPool recycles block arenas across files and loads: a dataset
// load opens seven files in quick succession, and re-zeroing half a
// megabyte per in-flight block each time shows up on a single-core
// profile.
var arenaPool = sync.Pool{New: func() any {
	b := make([]byte, pipeBlockSize)
	return &b
}}

// rowSpec is one trace kind's entry in the codec table: its row
// decoder and encoder, and how the pipeline frames and finishes it.
type rowSpec[T any] struct {
	name        string // logical file name for reports and errors
	snapshot    bool   // handle #taken header lines
	internPaths bool   // deduplicate path strings across rows
	parse       func(dc *decoder, line []byte, byName map[string]UserID) (T, error)
	encode      func(b []byte, rec *T, users []User) []byte // appends one row, no newline
	number      func(recs []T)                              // optional: numbers the records read, in file order
}

// fatalRow is a row error that fails the read in lenient mode too.
type fatalRow struct{ error }

// readPipelined reads r as spec's rows: the reader goroutine frames
// blocks, and the caller decodes them in order. It returns the decoded
// records (nil when none, and on error), the last valid #taken
// timestamp for snapshot specs, and the ParseReport. sizeHint, when
// positive, is the uncompressed input size used to size the record
// slice (growRecords) and the path intern table (newDecoder). The reader has exited by the time it returns,
// on every path.
func readPipelined[T any](r io.Reader, byName map[string]UserID, opts ReadOptions, sizeHint int, spec rowSpec[T]) ([]T, int64, *ParseReport, error) {
	// free can hold every arena at once, so handing one back never
	// blocks; blocks queues one sealed block while another decodes.
	free := make(chan []byte, pipeArenas)
	blocks := make(chan []byte, 1)
	done := make(chan struct{})
	// termErr is written by the reader before it closes blocks, and
	// read only after blocks is closed.
	var termErr error

	go func() { // reader: inflate into arenas, seal at newlines
		defer close(blocks)
		emit := func(data []byte) bool {
			select {
			case blocks <- data:
				return true
			case <-done:
				return false
			}
		}
		// Arenas are allocated lazily up to pipeArenas, then recycled
		// through free: a users.tsv that fits one block costs one
		// arena, a year-long access log settles into steady-state
		// reuse.
		allocated := 0
		getArena := func() []byte {
			select {
			case a := <-free:
				return a
			case <-done:
				return nil
			default:
			}
			if allocated < pipeArenas {
				allocated++
				return *arenaPool.Get().(*[]byte)
			}
			select {
			case a := <-free:
				return a
			case <-done:
				return nil
			}
		}
		var carry []byte // partial-line tail, owns its storage
		for {
			arena := getArena()
			if arena == nil {
				return
			}
			// The carry moves to the arena's head and the read fills the
			// rest. Only a carry that would leave less than half a block
			// free, a long line, takes a bigger arena.
			if cap(arena)-len(carry) < pipeBlockSize/2 {
				arena = make([]byte, len(carry)+pipeBlockSize)
			}
			arena = arena[:cap(arena)]
			n := copy(arena, carry)
			carry = carry[:0]
			var rerr error
			for n < len(arena) {
				m, e := r.Read(arena[n:])
				n += m
				if e != nil {
					rerr = e
					break
				}
			}
			data := arena[:n]
			eof := rerr == io.EOF
			first := bytes.IndexByte(data, '\n')
			// The full-buffer check fires before the scanner's next
			// Read ever would, so ErrTooLong wins over a pending read
			// error and nothing of the oversized line is emitted.
			if (first < 0 && n >= maxLineBytes) || first >= maxLineBytes {
				termErr = bufio.ErrTooLong
				return
			}
			if first < 0 { // no newline: all one partial line
				if eof || rerr != nil {
					if n > 0 {
						emit(data)
					}
					if !eof {
						termErr = rerr
					}
					return
				}
				carry = append(carry, data...)
				free <- arena
				continue
			}
			if eof || rerr != nil {
				// Flush everything buffered, trailing partial
				// included: the scanner emits it as a final token
				// before surfacing the error.
				emit(data)
				if !eof {
					termErr = rerr
				}
				return
			}
			last := bytes.LastIndexByte(data, '\n')
			if last+1 < n {
				carry = append(carry, data[last+1:n]...)
			}
			if !emit(data[:last+1]) {
				return
			}
		}
	}()

	// Decoder: blanks and comments are skipped without counting,
	// #taken headers (snapshot specs only) set taken, and data lines
	// either append a record or quarantine at their line number.
	dc := newDecoder(spec.internPaths, sizeHint)
	rep := &ParseReport{File: spec.name}
	var out []T
	var taken int64
	lines, bytesIn := 0, 0 // physical lines and input bytes decoded so far
	decode := func(data []byte) error {
		bytesIn += len(data)
		// A block holds at most one record per line, so out never
		// regrows while the block decodes.
		out = growRecords(out, bytes.Count(data, []byte{'\n'})+1, bytesIn, sizeHint)
		for len(data) > 0 {
			var line []byte
			if j := bytes.IndexByte(data, '\n'); j >= 0 {
				line, data = data[:j], data[j+1:]
			} else {
				line, data = data, nil
			}
			lines++
			if n := len(line); n > 0 && line[n-1] == '\r' {
				line = line[:n-1] // dropCR, as bufio.ScanLines does
			}
			if len(line) == 0 {
				continue
			}
			if line[0] == '#' {
				if spec.snapshot && bytes.HasPrefix(line, takenPrefix) {
					ts, err := parseIntBytes(line[len(takenPrefix):])
					if err == nil {
						taken = ts
						continue
					}
					rep.Lines++
					if err := rep.quarantine(spec.name, lines, opts, "bad taken timestamp"); err != nil {
						return err
					}
				}
				continue
			}
			rep.Lines++
			rec, err := spec.parse(dc, line, byName)
			if err != nil {
				o := opts
				_, fatal := err.(fatalRow)
				o.Lenient = o.Lenient && !fatal
				if err := rep.quarantine(spec.name, lines, o, err.Error()); err != nil {
					return err
				}
				continue
			}
			out = append(out, rec)
		}
		return nil
	}
	var abortErr error
	for data := range blocks {
		if abortErr == nil {
			if abortErr = decode(data); abortErr != nil {
				close(done) // stop the reader; drain until it closes blocks
			}
		}
		free <- data
	}
	// The reader has exited: hand the idle arenas back to the shared
	// pool.
	for len(free) > 0 {
		a := <-free
		arenaPool.Put(&a)
	}
	if abortErr != nil {
		return nil, 0, rep, abortErr
	}
	if termErr != nil {
		if err := rep.finish(spec.name, lines, opts, termErr); err != nil {
			return nil, 0, rep, err
		}
	}
	if len(out) == 0 {
		out = nil // an empty read yields no slice at all
	}
	if spec.number != nil {
		spec.number(out)
	}
	return out, taken, rep, nil
}

// growRecords returns out with room for n more records, n being the
// line count of the block about to decode and bytesIn the input bytes
// up to and including it. While the input's size is known and not yet
// read through, the room is the record count the blocks so far project
// over the whole input (their records and lines per byte times
// sizeHint), plus 1/32 slack, so a load ends with little spare
// capacity and is never copied to trim it. A single-block input, or
// one read past its hint, grows by exactly n.
func growRecords[T any](out []T, n, bytesIn, sizeHint int) []T {
	need := len(out) + n
	if need <= cap(out) {
		return out
	}
	if sizeHint <= bytesIn {
		return slices.Grow(out, n)
	}
	proj := int(int64(need) * int64(sizeHint) / int64(bytesIn))
	grown := make([]T, len(out), proj+proj/32+1)
	copy(grown, out)
	return grown
}

// The codec table: one spec per trace kind.
var (
	userSpec = rowSpec[User]{name: UsersFile, encode: appendUser,
		parse: func(dc *decoder, line []byte, _ map[string]UserID) (User, error) {
			return decodeUser(dc, line)
		},
		number: func(users []User) { // dense IDs; quarantined lines take none
			for i := range users {
				users[i].ID = UserID(i)
			}
		}}
	jobSpec    = rowSpec[Job]{name: JobsFile, parse: decodeJob, encode: appendJob}
	accessSpec = rowSpec[Access]{name: AccessesFile, internPaths: true,
		parse: decodeAccess, encode: appendAccess}
	pubSpec      = rowSpec[Publication]{name: PubsFile, parse: decodePublication, encode: appendPublication}
	snapshotSpec = rowSpec[SnapshotEntry]{name: SnapshotFile, snapshot: true,
		parse: decodeSnapshotEntry, encode: appendSnapshotEntry}
	loginSpec    = rowSpec[Login]{name: LoginsFile, parse: decodeLogin, encode: appendLogin}
	transferSpec = rowSpec[Transfer]{name: TransfersFile, parse: decodeTransfer, encode: appendTransfer}
	// pathSpec is a one-column list of absolute paths (a delta
	// checkpoint's deletions).
	pathSpec = rowSpec[string]{name: "paths", parse: decodePath, encode: appendPath}
)
