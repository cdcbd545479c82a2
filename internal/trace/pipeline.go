package trace

// Pipelined trace ingestion, the one read path for every trace kind.
// Each file is split into three stages — a reader goroutine inflating
// the stream into pooled line blocks, parser workers decoding blocks
// concurrently (decode.go), and an in-order assembler — so decode cost
// overlaps gzip inflation and, across files, other readers. The
// assembler applies blocks strictly in input order and replays
// per-line events (quarantines, #taken headers) against the
// ParseReport, which keeps record order, quarantine line numbers,
// MaxErrors short-circuiting, and truncated-input salvage exactly as
// a line-by-line read would have them. pipeline_test.go pins those
// outcomes (expect_test.go holds them).
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

	"activedr/internal/parallel"
)

const (
	// pipeBlockSize is the sealed-block target. Big enough that
	// per-block channel traffic is noise next to parse cost, small
	// enough that a handful of in-flight arenas stay cache-friendly.
	pipeBlockSize = 512 << 10
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
	ordered     bool   // decode on one worker, in file order, so parse may keep state
	parse       func(dc *decoder, line []byte, byName map[string]UserID) (T, error)
	encode      func(b []byte, rec *T, users []User) []byte // appends one row, no newline
	number      func(recs []T)                              // optional: numbers the records read, in file order
}

// fatalRow is a row error that fails the read in lenient mode too.
type fatalRow struct{ error }

// eventKind tags the per-line anomalies a parser worker cannot apply
// itself: anything that mutates the ParseReport or the snapshot
// header must replay on the assembler, in input order.
type eventKind uint8

const (
	evQuarantine eventKind = iota
	evTaken
)

// rowEvent is one such anomaly, positioned relative to its block.
type rowEvent struct {
	kind      eventKind
	relLine   int    // 1-based physical line within the block
	dataCount int    // data lines in the block up to and including this one
	reason    string // quarantine reason, pre-rendered
	fatal     bool   // evQuarantine: a fatalRow, which fails the read
	taken     int64  // evTaken: the header timestamp
}

// parseJob is one sealed block handed to a worker.
type parseJob struct {
	seq   int
	data  []byte // complete lines; the final block may lack a trailing '\n'
	arena []byte // backing storage, recycled by the assembler
}

// blockResult is one decoded block, reassembled by seq.
type blockResult[T any] struct {
	seq       int
	recs      []T
	events    []rowEvent
	lines     int // physical lines in the block
	dataLines int // ParseReport.Lines increments in the block
	bytes     int // input bytes in the block
	arena     []byte
}

// readPipelined runs the three-stage pipeline over r. It returns the
// decoded records (nil when none, and on error), the last valid
// #taken timestamp for snapshot specs, and the ParseReport. sizeHint,
// when positive, is the uncompressed input size used to size the
// record slice (growRecords).
func readPipelined[T any](r io.Reader, byName map[string]UserID, opts ReadOptions, sizeHint int, spec rowSpec[T]) ([]T, int64, *ParseReport, error) {
	ranks := 0
	if spec.ordered {
		ranks = 1
	}
	pool := parallel.NewPool(ranks)
	workers := pool.Ranks()
	nArenas := workers + 2

	free := make(chan []byte, nArenas)
	recsFree := make(chan []T, nArenas)
	jobs := make(chan parseJob, workers+1)
	results := make(chan blockResult[T], workers+1)
	done := make(chan struct{})

	// termErr is written by the reader before it closes jobs; poolErr
	// by the closer before it closes results. The assembler reads both
	// only after results is closed, so the channel closes order the
	// accesses.
	var termErr error
	var poolErr error

	go func() { // reader: inflate into arenas, seal at newlines
		defer close(jobs)
		seq := 0
		emit := func(data, arena []byte) bool {
			select {
			case jobs <- parseJob{seq: seq, data: data, arena: arena}:
				seq++
				return true
			case <-done:
				return false
			}
		}
		// Arenas are allocated lazily up to nArenas, then recycled
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
			if allocated < nArenas {
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
			if need := len(carry) + pipeBlockSize; cap(arena) < need {
				arena = make([]byte, need)
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
						emit(data, arena)
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
				emit(data, arena)
				if !eof {
					termErr = rerr
				}
				return
			}
			last := bytes.LastIndexByte(data, '\n')
			if last+1 < n {
				carry = append(carry, data[last+1:n]...)
			}
			if !emit(data[:last+1], arena) {
				return
			}
		}
	}()

	go func() { // workers: decode blocks concurrently
		poolErr = pool.Workers(func(rank int) error {
			dc := newDecoder(spec.internPaths)
			for pb := range jobs {
				select {
				case <-done: // aborted: drain without parsing
					continue
				default:
				}
				res := decodeBlock(dc, pb, byName, spec, recsFree)
				select {
				case results <- res:
				case <-done:
				}
			}
			return nil
		})
		close(results)
	}()

	// Assembler: apply blocks in seq order, replaying events against
	// the report in input order.
	rep := &ParseReport{File: spec.name}
	var out []T
	bytesIn := 0 // input bytes of the blocks applied so far
	var taken int64
	var abortErr error
	totalLines := 0
	pending := make(map[int]blockResult[T])
	next := 0
	apply := func(res blockResult[T]) {
		base := rep.Lines
		for _, ev := range res.events {
			switch ev.kind {
			case evTaken:
				taken = ev.taken
			case evQuarantine:
				rep.Lines = base + ev.dataCount
				o := opts
				o.Lenient = o.Lenient && !ev.fatal
				if err := rep.quarantine(spec.name, totalLines+ev.relLine, o, ev.reason); err != nil {
					abortErr = err
					return
				}
			}
		}
		rep.Lines = base + res.dataLines
		totalLines += res.lines
		bytesIn += res.bytes
		out = growRecords(out, len(res.recs), bytesIn, sizeHint)
		out = append(out, res.recs...)
		select {
		case recsFree <- res.recs[:0]:
		default:
		}
		select {
		case free <- res.arena:
		default:
		}
	}
	for res := range results {
		if abortErr != nil {
			continue // already aborted: drain until the pipeline winds down
		}
		pending[res.seq] = res
		for {
			nres, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			apply(nres)
			if abortErr != nil {
				close(done)
				break
			}
			next++
		}
	}
	// The pipeline is fully wound down (results closed ⇒ reader and
	// workers joined): hand the idle arenas back to the shared pool.
	for {
		select {
		case a := <-free:
			arenaPool.Put(&a)
			continue
		default:
		}
		break
	}
	if abortErr != nil {
		return nil, 0, rep, abortErr
	}
	if poolErr != nil {
		return nil, 0, rep, poolErr
	}
	if termErr != nil {
		if err := rep.finish(spec.name, totalLines, opts, termErr); err != nil {
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

// growRecords returns out with room for n more records. While the
// input's size is known, the room is the record count the blocks read
// so far project over the whole input (their records per byte times
// sizeHint), plus 1/32 slack, so a load ends with little spare
// capacity and is never copied to trim it. Past sizeHint, append's own
// growth takes over.
func growRecords[T any](out []T, n, bytesIn, sizeHint int) []T {
	need := len(out) + n
	if need <= cap(out) || sizeHint <= bytesIn {
		return out
	}
	proj := int(int64(need) * int64(sizeHint) / int64(bytesIn))
	grown := make([]T, len(out), proj+proj/32+1)
	copy(grown, out)
	return grown
}

// decodeBlock parses one block's lines with the worker's decoder:
// blanks and comments are skipped without counting, #taken headers
// (snapshot specs only) become events, data lines either decode into
// records or quarantine events.
func decodeBlock[T any](dc *decoder, pb parseJob, byName map[string]UserID, spec rowSpec[T], recsFree chan []T) blockResult[T] {
	var recs []T
	select {
	case recs = <-recsFree:
	default:
	}
	// A block holds at most one record per line, so its slice never
	// regrows while it decodes.
	recs = slices.Grow(recs, bytes.Count(pb.data, []byte{'\n'})+1)
	res := blockResult[T]{seq: pb.seq, bytes: len(pb.data), arena: pb.arena}
	data := pb.data
	for len(data) > 0 {
		var line []byte
		if j := bytes.IndexByte(data, '\n'); j >= 0 {
			line, data = data[:j], data[j+1:]
		} else {
			line, data = data, nil
		}
		res.lines++
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1] // dropCR, as bufio.ScanLines does
		}
		if len(line) == 0 {
			continue
		}
		if line[0] == '#' {
			if spec.snapshot && bytes.HasPrefix(line, takenPrefix) {
				ts, err := parseIntBytes(line[len(takenPrefix):])
				if err != nil {
					res.dataLines++
					res.events = append(res.events, rowEvent{kind: evQuarantine,
						relLine: res.lines, dataCount: res.dataLines, reason: "bad taken timestamp"})
				} else {
					res.events = append(res.events, rowEvent{kind: evTaken, taken: ts})
				}
			}
			continue
		}
		res.dataLines++
		rec, err := spec.parse(dc, line, byName)
		if err != nil {
			_, fatal := err.(fatalRow)
			res.events = append(res.events, rowEvent{kind: evQuarantine,
				relLine: res.lines, dataCount: res.dataLines, reason: err.Error(), fatal: fatal})
			continue
		}
		recs = append(recs, rec)
	}
	res.recs = recs
	return res
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
