package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"activedr/internal/parallel"
	"activedr/internal/timeutil"
)

// Standard file names inside a dataset directory.
const (
	UsersFile    = "users.tsv"
	JobsFile     = "jobs.tsv.gz"
	AccessesFile = "accesses.tsv.gz"
	PubsFile     = "publications.tsv"
	SnapshotFile = "snapshot.tsv.gz"
)

// closeAll composes layered closers (innermost first) into one that
// always runs every layer and joins the failures with errors.Join, so
// an inner-layer error can neither mask an outer close error nor leak
// the outer layer entirely.
func closeAll(closers ...func() error) func() error {
	return func() error {
		var errs []error
		for _, c := range closers {
			if err := c(); err != nil {
				errs = append(errs, err)
			}
		}
		return errors.Join(errs...)
	}
}

// openReader opens path, transparently ungzipping *.gz through the
// package's own gzip reader (gunzip.go), whose states are pooled as
// the writer's layers are. The returned closer closes the file and
// returns the pooled state, so the reader must not be used after it.
func openReader(path string) (io.Reader, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	if !strings.HasSuffix(path, ".gz") {
		return f, f.Close, nil
	}
	z := gzipReaders.Get().(*gzipReader)
	put := func() error { z.src = nil; gzipReaders.Put(z); return nil }
	if err := z.reset(f); err != nil {
		f.Close() //lint:allow unchecked-close the gzip open error wins; nothing was written
		put()
		return nil, nil, fmt.Errorf("trace: open %s: %w", path, err)
	}
	return z, closeAll(z.Close, f.Close, put), nil
}

// The writer's layers are pooled: a 1 MiB buffer and a BestSpeed
// flate compressor cost about 2.2 MB to allocate and zero, more than
// most checkpoint sidecars hold. Reset makes a reused layer write the
// same bytes as a new one.
var (
	bufWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 1<<20) }}
	gzWriters  = sync.Pool{New: func() any {
		gz, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed) // the level is a valid constant
		return gz
	}}
)

// openWriter creates path, transparently gzipping *.gz. Gzip uses
// BestSpeed: trace files are intermediate artifacts, and the cheaper
// deflate roughly doubles tracegen throughput for a few percent of
// size. The closer returns the pooled layers, so the writer must not
// be used after it.
func openWriter(path string) (io.Writer, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	bw := bufWriters.Get().(*bufio.Writer)
	bw.Reset(f)
	putBuf := func() error { bufWriters.Put(bw); return nil }
	if !strings.HasSuffix(path, ".gz") {
		return bw, closeAll(bw.Flush, f.Close, putBuf), nil
	}
	gz := gzWriters.Get().(*gzip.Writer)
	gz.Reset(bw)
	putGz := func() error { gzWriters.Put(gz); return nil }
	return gz, closeAll(gz.Close, bw.Flush, f.Close, putBuf, putGz), nil
}

// writeFile creates path (gzipped for .gz names) and writes it with fn.
func writeFile(path string, fn func(io.Writer) error) error {
	w, closeFn, err := openWriter(path)
	if err != nil {
		return err
	}
	if err := fn(w); err != nil {
		closeFn()
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	if err := closeFn(); err != nil {
		return fmt.Errorf("trace: close %s: %w", path, err)
	}
	return nil
}

// uncompressedSizeHint estimates the uncompressed byte size of path
// so the pipelined readers can presize their record slices: plain
// files report their stat size, gzipped files the ISIZE trailer (the
// uncompressed length mod 2³² that every gzip member ends with).
// Zero means no hint — corrupt or unreadable inputs still parse, they
// just fall back to append growth.
func uncompressedSizeHint(path string) int {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	if !strings.HasSuffix(path, ".gz") {
		return int(fi.Size())
	}
	if fi.Size() < 20 { // header (10) + trailer (8) + a little data
		return 0
	}
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	var tail [4]byte
	_, rerr := f.ReadAt(tail[:], fi.Size()-4)
	cerr := f.Close()
	if rerr != nil || cerr != nil {
		return 0
	}
	isize := int64(binary.LittleEndian.Uint32(tail[:]))
	// A truncated member's last 4 bytes are deflate data, not the real
	// trailer, so the value can be arbitrary garbage. TSV deflates at
	// single-digit ratios; a claim past 64x the compressed size is
	// noise — drop the hint rather than presize gigabytes.
	if isize > fi.Size()*64 {
		return 0
	}
	return int(isize)
}

// rowBufPool recycles the per-call row-encoding buffers the writers
// build lines in, so concurrent dataset writes don't each grow a
// fresh one.
var rowBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// rowFlushBytes is how many encoded bytes writeRows collects before it
// hands them to its writer.
const rowFlushBytes = 64 << 10

// writeRows is the one row writer: it encodes each record of recs as
// one spec row and a newline, handing w the rows in chunks of about
// rowFlushBytes.
func writeRows[T any](w io.Writer, users []User, recs []T, spec rowSpec[T]) error {
	bp := rowBufPool.Get().(*[]byte)
	defer rowBufPool.Put(bp)
	buf := (*bp)[:0]
	for i := range recs {
		buf = append(spec.encode(buf, &recs[i], users), '\n')
		if len(buf) >= rowFlushBytes || i == len(recs)-1 {
			if _, err := w.Write(buf); err != nil {
				*bp = buf
				return err
			}
			buf = buf[:0]
		}
	}
	*bp = buf
	return nil
}

// writeUsers writes the user list as TSV: name, created, archetype.
func writeUsers(w io.Writer, users []User) error { return writeRows(w, users, users, userSpec) }

// writeJobs writes the job log as TSV: user, submit, duration_s, cores.
func writeJobs(w io.Writer, users []User, jobs []Job) error {
	return writeRows(w, users, jobs, jobSpec)
}

// writeAccesses writes the application log as TSV:
// ts, user, create, size, path.
func writeAccesses(w io.Writer, users []User, accs []Access) error {
	return writeRows(w, users, accs, accessSpec)
}

// writePublications writes the publication list as TSV:
// ts, citations, comma-joined author names.
func writePublications(w io.Writer, users []User, pubs []Publication) error {
	return writeRows(w, users, pubs, pubSpec)
}

// WriteSnapshot writes a metadata snapshot as TSV with a header
// comment carrying the capture time: path rows are
// user, size, stripes, atime, path.
func WriteSnapshot(w io.Writer, users []User, s *Snapshot) error {
	head := strconv.AppendInt(append([]byte(nil), takenPrefix...), int64(s.Taken), 10)
	if _, err := w.Write(append(head, '\n')); err != nil {
		return err
	}
	return writeRows(w, users, s.Entries, snapshotSpec)
}

// WriteSnapshotFile writes one metadata snapshot to path
// (transparently gzipped for .gz paths).
func WriteSnapshotFile(path string, users []User, s *Snapshot) error {
	return writeFile(path, func(w io.Writer) error { return WriteSnapshot(w, users, s) })
}

// WritePathsFile writes a path list to path (transparently gzipped
// for .gz paths), one absolute path per line.
func WritePathsFile(path string, paths []string) error {
	return writeFile(path, func(w io.Writer) error { return writeRows(w, nil, paths, pathSpec) })
}

// loadFile is the one load step: it reads the file at path as spec's
// rows, presized from its uncompressed size, and folds the close
// error into the lenient truncation rule. A cut-short gzip member also
// fails its close, but the salvaged records are already in hand, so
// lenient mode accepts it when the read itself flagged the truncation.
// It returns the records, the #taken header of a snapshot and the
// report.
func loadFile[T any](path string, byName map[string]UserID, opts ReadOptions, spec rowSpec[T]) ([]T, timeutil.Time, *ParseReport, error) {
	hint := uncompressedSizeHint(path)
	r, closeFn, err := openReader(path)
	if err != nil {
		return nil, 0, nil, err
	}
	recs, taken, rep, err := readPipelined(r, byName, opts, hint, spec)
	if cerr := closeFn(); err == nil && cerr != nil && !(opts.Lenient && rep.Truncated && isTruncation(cerr)) {
		return nil, 0, rep, cerr
	}
	return recs, timeutil.Time(taken), rep, err
}

// ReadSnapshotFile reads one metadata snapshot from path.
func ReadSnapshotFile(path string, byName map[string]UserID) (*Snapshot, error) {
	entries, taken, _, err := loadFile(path, byName, ReadOptions{}, snapshotSpec)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return &Snapshot{Taken: taken, Entries: entries}, nil
}

// ReadPathsFile reads a WritePathsFile list; a relative path fails it.
func ReadPathsFile(path string) ([]string, error) {
	paths, _, _, err := loadFile(path, nil, ReadOptions{}, pathSpec)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return paths, nil
}

// ReadRows reads the text file at path (transparently gunzipping *.gz)
// through the trace readers' framing, quarantine and truncation rules,
// for a format whose first data line is a header. header turns that
// line into the decoder of every row after it, or fails the read, in
// lenient mode too. Rows decode in file order, on one decoder, so the
// row decoder that header returns may keep state. The report and its
// errors carry path's base name.
func ReadRows[T any](path string, opts ReadOptions, header func(line []byte) (func(line []byte) (T, error), error)) ([]T, *ParseReport, error) {
	var row func(line []byte) (T, error)
	spec := rowSpec[T]{name: filepath.Base(path),
		parse: func(_ *decoder, line []byte, _ map[string]UserID) (rec T, err error) {
			if row != nil {
				return row(line)
			}
			if row, err = header(line); err != nil {
				return rec, fatalRow{err}
			}
			return rec, nil // the header's placeholder, dropped below
		}}
	recs, _, rep, err := loadFile(path, nil, opts, spec)
	if len(recs) > 0 {
		recs = recs[1:]
	}
	return recs, rep, err
}

// runFiles runs one step per file concurrently, each starting as a
// pool slot frees up. It returns the reports of the steps up to the
// first that failed, and its error: the first failure in file order
// wins, as if the files had been handled one by one up to it. Write
// steps return no report.
func runFiles(steps []func() (*ParseReport, error)) ([]*ParseReport, error) {
	reps := make([]*ParseReport, len(steps))
	errs := make([]error, len(steps))
	tasks := make([]func() error, len(steps))
	for i, step := range steps {
		tasks[i] = func() error {
			reps[i], errs[i] = step()
			return nil
		}
	}
	if err := parallel.NewPool(0).Run(tasks); err != nil {
		return nil, err
	}
	var out []*ParseReport
	for i := range steps {
		if reps[i] != nil {
			out = append(out, reps[i])
		}
		if errs[i] != nil {
			return out, errs[i]
		}
	}
	return out, nil
}

// writeStep is the runFiles step that writes path with fn.
func writeStep(path string, fn func(io.Writer) error) func() (*ParseReport, error) {
	return func() (*ParseReport, error) { return nil, writeFile(path, fn) }
}

// WriteSnapshotSeries persists a series of weekly metadata snapshots
// under dir as snapshot-YYYYMMDD.tsv.gz — the artifact shape the
// paper's Spider II data ships as ("a series of gzipped text files").
// Files are written concurrently; the first failure in series order
// wins.
func WriteSnapshotSeries(dir string, users []User, snaps []*Snapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	steps := make([]func() (*ParseReport, error), len(snaps))
	for i, s := range snaps {
		name := fmt.Sprintf("snapshot-%s.tsv.gz", s.Taken.Go().Format("20060102"))
		steps[i] = writeStep(filepath.Join(dir, name), func(w io.Writer) error { return WriteSnapshot(w, users, s) })
	}
	_, err := runFiles(steps)
	return err
}

// LoadSnapshotSeriesWith reads every snapshot-*.tsv.gz under dir
// under the given strictness, the files side by side with one decoder
// each. The snapshots are ordered by capture time — Snapshot.Taken is
// the contract, not the file names — with glob order breaking ties, so
// the result is deterministic under concurrent loads. The per-file
// reports (named by base file name, glob order)
// run through the same lenient/truncation close handling as
// LoadDatasetWith: a cut-short gzip member surfaces as
// ParseReport.Truncated in lenient mode and as an error otherwise,
// instead of being silently dropped. As there, the first failure in
// glob order wins, with the reports of the files before it.
func LoadSnapshotSeriesWith(dir string, byName map[string]UserID, opts ReadOptions) ([]*Snapshot, []*ParseReport, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "snapshot-*.tsv.gz"))
	if err != nil {
		return nil, nil, err
	}
	// filepath.Glob returns lexically sorted paths: the deterministic
	// slot order of the per-file results.
	snaps := make([]*Snapshot, len(matches))
	steps := make([]func() (*ParseReport, error), len(matches))
	for i, path := range matches {
		steps[i] = func() (rep *ParseReport, err error) {
			s := &Snapshot{}
			s.Entries, s.Taken, rep, err = loadFile(path, byName, opts, snapshotSpec)
			if rep != nil {
				rep.File = filepath.Base(path)
			}
			if err != nil {
				return rep, fmt.Errorf("trace: %s: %w", path, err)
			}
			snaps[i] = s
			return rep, nil
		}
	}
	reps, err := runFiles(steps)
	if err != nil {
		return nil, reps, err
	}
	sort.SliceStable(snaps, func(i, j int) bool { return snaps[i].Taken < snaps[j].Taken })
	return snaps, reps, nil
}

// NameIndex builds the login-name → ID map used by the readers.
func NameIndex(users []User) map[string]UserID {
	m := make(map[string]UserID, len(users))
	for i := range users {
		m[users[i].Name] = users[i].ID
	}
	return m
}

// WriteDataset persists every trace kind under dir using the standard
// file names, one writer per file running concurrently. Each file's
// bytes are exactly its per-file writer's output (writeUsers,
// writeJobs, ...), gzipped for .gz names.
func WriteDataset(dir string, d *Dataset) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	u := d.Users
	step := func(name string, fn func(io.Writer) error) func() (*ParseReport, error) {
		return writeStep(filepath.Join(dir, name), fn)
	}
	steps := []func() (*ParseReport, error){
		step(UsersFile, func(w io.Writer) error { return writeUsers(w, u) }),
		step(JobsFile, func(w io.Writer) error { return writeJobs(w, u, d.Jobs) }),
		step(AccessesFile, func(w io.Writer) error { return writeAccesses(w, u, d.Accesses) }),
		step(PubsFile, func(w io.Writer) error { return writePublications(w, u, d.Publications) }),
	}
	if len(d.Logins) > 0 {
		steps = append(steps, step(LoginsFile, func(w io.Writer) error { return writeLogins(w, u, d.Logins) }))
	}
	if len(d.Transfers) > 0 {
		steps = append(steps, step(TransfersFile, func(w io.Writer) error { return writeTransfers(w, u, d.Transfers) }))
	}
	steps = append(steps, step(SnapshotFile, func(w io.Writer) error { return WriteSnapshot(w, u, &d.Snapshot) }))
	_, err := runFiles(steps)
	return err
}

// LoadDataset reads every trace kind from dir and validates the
// result.
func LoadDataset(dir string) (*Dataset, error) {
	d, _, err := LoadDatasetWith(dir, ReadOptions{})
	return d, err
}

// loadStep is the runFiles step that loads dir's file of spec's kind
// into *dst.
func loadStep[T any](dir string, byName map[string]UserID, opts ReadOptions, spec rowSpec[T], dst *[]T) func() (*ParseReport, error) {
	return func() (rep *ParseReport, err error) {
		*dst, _, rep, err = loadFile(filepath.Join(dir, spec.name), byName, opts, spec)
		return rep, err
	}
}

// LoadDatasetWith reads every trace kind from dir under the given
// strictness and validates the result. users.tsv loads first (every
// other reader needs its NameIndex); the remaining files then load
// concurrently, each through the pipelined decoder. The DatasetReport
// lists the per-file reports in canonical file order, and on failure
// the first error in that order wins, with the reports truncated at
// the failing file, as if the files had been read one by one up to
// the first failure.
func LoadDatasetWith(dir string, opts ReadOptions) (*Dataset, *DatasetReport, error) {
	d := &Dataset{}
	rep := &DatasetReport{}
	urep, err := loadStep(dir, nil, opts, userSpec, &d.Users)()
	if urep != nil {
		rep.Reports = append(rep.Reports, urep)
	}
	if err != nil {
		return nil, rep, err
	}
	idx := NameIndex(d.Users)
	steps := []func() (*ParseReport, error){
		loadStep(dir, idx, opts, jobSpec, &d.Jobs),
		loadStep(dir, idx, opts, accessSpec, &d.Accesses),
		loadStep(dir, idx, opts, pubSpec, &d.Publications),
	}
	// Logins and transfers are optional trace kinds.
	if _, err := os.Stat(filepath.Join(dir, LoginsFile)); err == nil {
		steps = append(steps, loadStep(dir, idx, opts, loginSpec, &d.Logins))
	}
	if _, err := os.Stat(filepath.Join(dir, TransfersFile)); err == nil {
		steps = append(steps, loadStep(dir, idx, opts, transferSpec, &d.Transfers))
	}
	if !opts.SkipSnapshot {
		steps = append(steps, func() (rep *ParseReport, err error) {
			d.Snapshot.Entries, d.Snapshot.Taken, rep, err = loadFile(filepath.Join(dir, SnapshotFile), idx, opts, snapshotSpec)
			return rep, err
		})
	}
	reps, err := runFiles(steps)
	rep.Reports = append(rep.Reports, reps...)
	if err != nil {
		return nil, rep, err
	}
	if err := d.Validate(); err != nil {
		return nil, rep, err
	}
	return d, rep, nil
}
