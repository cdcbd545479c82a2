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

// openReader opens path, transparently ungzipping *.gz. Gzipped
// inputs read the file through a large bufio layer so the flate
// decoder issues few syscalls. The returned closer closes both
// layers.
func openReader(path string) (io.Reader, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	if !strings.HasSuffix(path, ".gz") {
		return f, f.Close, nil
	}
	gz, err := gzip.NewReader(bufio.NewReaderSize(f, 256<<10))
	if err != nil {
		f.Close() //lint:allow unchecked-close the gzip open error wins; nothing was written
		return nil, nil, fmt.Errorf("trace: open %s: %w", path, err)
	}
	return gz, closeAll(gz.Close, f.Close), nil
}

// openWriter creates path, transparently gzipping *.gz. Gzip uses
// BestSpeed: trace files are intermediate artifacts, and the cheaper
// deflate roughly doubles tracegen throughput for a few percent of
// size.
func openWriter(path string) (io.Writer, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if !strings.HasSuffix(path, ".gz") {
		return bw, closeAll(bw.Flush, f.Close), nil
	}
	gz, _ := gzip.NewWriterLevel(bw, gzip.BestSpeed) // the level is a valid constant
	return gz, closeAll(gz.Close, bw.Flush, f.Close), nil
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

// --- users ---

// WriteUsers writes the user list as TSV: name, created, archetype.
func WriteUsers(w io.Writer, users []User) error {
	bw := bufio.NewWriter(w)
	bp := rowBufPool.Get().(*[]byte)
	defer rowBufPool.Put(bp)
	buf := *bp
	for i := range users {
		u := &users[i]
		buf = append(buf[:0], u.Name...)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, int64(u.Created), 10)
		buf = append(buf, '\t')
		buf = append(buf, u.Archetype...)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			*bp = buf
			return err
		}
	}
	*bp = buf
	return bw.Flush()
}

// readUsersWithHint parses a user list under the given strictness,
// assigning dense IDs in file order; quarantined lines do not consume
// an ID. hint, when positive, presizes the result.
func readUsersWithHint(r io.Reader, opts ReadOptions, hint int) ([]User, *ParseReport, error) {
	users, _, rep, err := readPipelined(r, nil, opts, hint, userSpec)
	for i := range users {
		users[i].ID = UserID(i)
	}
	return users, rep, err
}

// --- jobs ---

// WriteJobs writes the job log as TSV: user, submit, duration_s, cores.
func WriteJobs(w io.Writer, users []User, jobs []Job) error {
	bw := bufio.NewWriter(w)
	bp := rowBufPool.Get().(*[]byte)
	defer rowBufPool.Put(bp)
	buf := *bp
	for i := range jobs {
		j := &jobs[i]
		buf = append(buf[:0], users[j.User].Name...)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, int64(j.Submit), 10)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, int64(j.Duration), 10)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, int64(j.Cores), 10)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			*bp = buf
			return err
		}
	}
	*bp = buf
	return bw.Flush()
}

// readJobsWithHint parses a job log using the name→ID index.
func readJobsWithHint(r io.Reader, byName map[string]UserID, opts ReadOptions, hint int) ([]Job, *ParseReport, error) {
	jobs, _, rep, err := readPipelined(r, byName, opts, hint, jobSpec)
	return jobs, rep, err
}

// --- accesses ---

// WriteAccesses writes the application log as TSV:
// ts, user, create, size, path.
func WriteAccesses(w io.Writer, users []User, accs []Access) error {
	bw := bufio.NewWriter(w)
	bp := rowBufPool.Get().(*[]byte)
	defer rowBufPool.Put(bp)
	buf := *bp
	for i := range accs {
		a := &accs[i]
		var op int64
		if a.Create {
			op = 1
		}
		buf = AppendAccessRow(buf[:0], a.TS, users[a.User].Name, op, a.Size, a.Path)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			*bp = buf
			return err
		}
	}
	*bp = buf
	return bw.Flush()
}

// readAccessesWithHint parses an application log.
func readAccessesWithHint(r io.Reader, byName map[string]UserID, opts ReadOptions, hint int) ([]Access, *ParseReport, error) {
	accs, _, rep, err := readPipelined(r, byName, opts, hint, accessSpec)
	return accs, rep, err
}

// --- publications ---

// WritePublications writes the publication list as TSV:
// ts, citations, comma-joined author names.
func WritePublications(w io.Writer, users []User, pubs []Publication) error {
	bw := bufio.NewWriter(w)
	bp := rowBufPool.Get().(*[]byte)
	defer rowBufPool.Put(bp)
	buf := *bp
	for i := range pubs {
		p := &pubs[i]
		buf = strconv.AppendInt(buf[:0], int64(p.TS), 10)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, int64(p.Citations), 10)
		buf = append(buf, '\t')
		for k, a := range p.Authors {
			if k > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, users[a].Name...)
		}
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			*bp = buf
			return err
		}
	}
	*bp = buf
	return bw.Flush()
}

// readPublicationsWithHint parses a publication list.
func readPublicationsWithHint(r io.Reader, byName map[string]UserID, opts ReadOptions, hint int) ([]Publication, *ParseReport, error) {
	pubs, _, rep, err := readPipelined(r, byName, opts, hint, pubSpec)
	return pubs, rep, err
}

// --- snapshots ---

// WriteSnapshot writes a metadata snapshot as TSV with a header
// comment carrying the capture time: path rows are
// user, size, stripes, atime, path.
func WriteSnapshot(w io.Writer, users []User, s *Snapshot) error {
	bw := bufio.NewWriter(w)
	bp := rowBufPool.Get().(*[]byte)
	defer rowBufPool.Put(bp)
	buf := *bp
	buf = append(buf[:0], "#taken\t"...)
	buf = strconv.AppendInt(buf, int64(s.Taken), 10)
	buf = append(buf, '\n')
	if _, err := bw.Write(buf); err != nil {
		*bp = buf
		return err
	}
	for i := range s.Entries {
		e := &s.Entries[i]
		buf = append(buf[:0], users[e.User].Name...)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, e.Size, 10)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, int64(e.Stripes), 10)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, int64(e.ATime), 10)
		buf = append(buf, '\t')
		buf = append(buf, e.Path...)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			*bp = buf
			return err
		}
	}
	*bp = buf
	return bw.Flush()
}

// ReadSnapshot parses a metadata snapshot.
func ReadSnapshot(r io.Reader, byName map[string]UserID) (*Snapshot, error) {
	s, _, err := ReadSnapshotWith(r, byName, ReadOptions{})
	return s, err
}

// ReadSnapshotWith parses a metadata snapshot under the given
// strictness.
func ReadSnapshotWith(r io.Reader, byName map[string]UserID, opts ReadOptions) (*Snapshot, *ParseReport, error) {
	return readSnapshotWithHint(r, byName, opts, 0)
}

func readSnapshotWithHint(r io.Reader, byName map[string]UserID, opts ReadOptions, hint int) (*Snapshot, *ParseReport, error) {
	entries, taken, rep, err := readPipelined(r, byName, opts, hint, snapshotSpec)
	if err != nil {
		return nil, rep, err
	}
	return &Snapshot{Taken: timeutil.Time(taken), Entries: entries}, rep, nil
}

// WriteSnapshotFile writes one metadata snapshot to path
// (transparently gzipped for .gz paths).
func WriteSnapshotFile(path string, users []User, s *Snapshot) error {
	w, closeFn, err := openWriter(path)
	if err != nil {
		return err
	}
	if err := WriteSnapshot(w, users, s); err != nil {
		closeFn()
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	if err := closeFn(); err != nil {
		return fmt.Errorf("trace: close %s: %w", path, err)
	}
	return nil
}

// ReadSnapshotFile reads one metadata snapshot from path.
func ReadSnapshotFile(path string, byName map[string]UserID) (*Snapshot, error) {
	r, closeFn, err := openReader(path)
	if err != nil {
		return nil, err
	}
	defer closeFn()
	s, err := ReadSnapshot(r, byName)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return s, nil
}

// WriteSnapshotSeries persists a series of weekly metadata snapshots
// under dir as snapshot-YYYYMMDD.tsv.gz — the artifact shape the
// paper's Spider II data ships as ("a series of gzipped text files").
// Files are written concurrently, one worker per snapshot.
func WriteSnapshotSeries(dir string, users []User, snaps []*Snapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	errs := make([]error, len(snaps))
	pool := parallel.NewPool(0)
	if err := pool.RunShards(len(snaps), func(rank, lo, hi int) error {
		for i := lo; i < hi; i++ {
			name := fmt.Sprintf("snapshot-%s.tsv.gz", snaps[i].Taken.Go().Format("20060102"))
			errs[i] = WriteSnapshotFile(filepath.Join(dir, name), users, snaps[i])
		}
		return nil
	}); err != nil {
		return err
	}
	for _, err := range errs { // first failure in series order wins
		if err != nil {
			return err
		}
	}
	return nil
}

// LoadSnapshotSeriesWith reads every snapshot-*.tsv.gz under dir
// under the given strictness, decoding one worker per file. The
// snapshots are ordered by capture time —
// Snapshot.Taken is the contract, not the file names — with glob
// order breaking ties, so the result is deterministic under parallel
// decode. The per-file reports (named by base file name, glob order)
// run through the same lenient/truncation close handling as
// LoadDatasetWith: a cut-short gzip member surfaces as
// ParseReport.Truncated in lenient mode and as an error otherwise,
// instead of being silently dropped.
func LoadSnapshotSeriesWith(dir string, byName map[string]UserID, opts ReadOptions) ([]*Snapshot, []*ParseReport, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "snapshot-*.tsv.gz"))
	if err != nil {
		return nil, nil, err
	}
	// filepath.Glob returns lexically sorted paths: the deterministic
	// slot order of the per-file results.
	snaps := make([]*Snapshot, len(matches))
	reps := make([]*ParseReport, len(matches))
	errs := make([]error, len(matches))
	pool := parallel.NewPool(0)
	if err := pool.RunShards(len(matches), func(rank, lo, hi int) error {
		for i := lo; i < hi; i++ {
			path := matches[i]
			reps[i], errs[i] = loadTraceFileAt(path, opts, func(r io.Reader, hint int) (*ParseReport, error) {
				s, fr, e := readSnapshotWithHint(r, byName, opts, hint)
				if e != nil {
					return fr, e
				}
				snaps[i] = s
				return fr, nil
			})
			if reps[i] != nil {
				reps[i].File = filepath.Base(path)
			}
			if errs[i] != nil {
				errs[i] = fmt.Errorf("trace: %s: %w", path, errs[i])
			}
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	// First failure in glob order wins; its report (and those of the
	// files before it) are kept, later files' dropped, as if the files
	// had been read one by one up to the first failure.
	var out []*ParseReport
	for i := range matches {
		if reps[i] != nil {
			out = append(out, reps[i])
		}
		if errs[i] != nil {
			return nil, out, errs[i]
		}
	}
	sort.SliceStable(snaps, func(i, j int) bool { return snaps[i].Taken < snaps[j].Taken })
	return snaps, out, nil
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
// bytes are exactly its per-file writer's output (WriteUsers,
// WriteJobs, ...), gzipped for .gz names.
func WriteDataset(dir string, d *Dataset) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(io.Writer) error) error {
		w, closeFn, err := openWriter(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(w); err != nil {
			closeFn()
			return fmt.Errorf("trace: write %s: %w", name, err)
		}
		if err := closeFn(); err != nil {
			return fmt.Errorf("trace: close %s: %w", name, err)
		}
		return nil
	}
	type task struct {
		name string
		fn   func(io.Writer) error
	}
	tasks := []task{
		{UsersFile, func(w io.Writer) error { return WriteUsers(w, d.Users) }},
		{JobsFile, func(w io.Writer) error { return WriteJobs(w, d.Users, d.Jobs) }},
		{AccessesFile, func(w io.Writer) error { return WriteAccesses(w, d.Users, d.Accesses) }},
		{PubsFile, func(w io.Writer) error { return WritePublications(w, d.Users, d.Publications) }},
	}
	if len(d.Logins) > 0 {
		tasks = append(tasks, task{LoginsFile, func(w io.Writer) error { return WriteLogins(w, d.Users, d.Logins) }})
	}
	if len(d.Transfers) > 0 {
		tasks = append(tasks, task{TransfersFile, func(w io.Writer) error { return WriteTransfers(w, d.Users, d.Transfers) }})
	}
	tasks = append(tasks, task{SnapshotFile, func(w io.Writer) error { return WriteSnapshot(w, d.Users, &d.Snapshot) }})
	errs := make([]error, len(tasks))
	run := make([]func() error, len(tasks))
	for i, t := range tasks {
		i, t := i, t
		run[i] = func() error {
			errs[i] = write(t.name, t.fn)
			return nil
		}
	}
	pool := parallel.NewPool(0)
	if err := pool.Run(run); err != nil {
		return err
	}
	for _, err := range errs { // first failure in canonical order wins
		if err != nil {
			return err
		}
	}
	return nil
}

// LoadDataset reads every trace kind from dir and validates the
// result.
func LoadDataset(dir string) (*Dataset, error) {
	d, _, err := LoadDatasetWith(dir, ReadOptions{})
	return d, err
}

// loadTraceFileAt opens path, runs fn over it with the uncompressed
// size hint, and folds the close error into the lenient/truncation
// decision: a cut-short gzip member also fails its close, but the
// salvaged records are already in hand, so lenient mode accepts it
// when the read itself flagged the truncation.
func loadTraceFileAt(path string, opts ReadOptions, fn func(r io.Reader, hint int) (*ParseReport, error)) (*ParseReport, error) {
	hint := uncompressedSizeHint(path)
	r, closeFn, err := openReader(path)
	if err != nil {
		return nil, err
	}
	fr, ferr := fn(r, hint)
	cerr := closeFn()
	if ferr != nil {
		return fr, ferr
	}
	if cerr != nil {
		if opts.Lenient && fr != nil && fr.Truncated && isTruncation(cerr) {
			return fr, nil
		}
		return fr, cerr
	}
	return fr, nil
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
	urep, err := loadTraceFileAt(filepath.Join(dir, UsersFile), opts, func(r io.Reader, hint int) (*ParseReport, error) {
		var (
			fr *ParseReport
			e  error
		)
		d.Users, fr, e = readUsersWithHint(r, opts, hint)
		return fr, e
	})
	if urep != nil {
		rep.Reports = append(rep.Reports, urep)
	}
	if err != nil {
		return nil, rep, err
	}
	idx := NameIndex(d.Users)
	type loadFile struct {
		name string
		fn   func(r io.Reader, hint int) (*ParseReport, error)
	}
	files := []loadFile{
		{JobsFile, func(r io.Reader, hint int) (*ParseReport, error) {
			var (
				fr *ParseReport
				e  error
			)
			d.Jobs, fr, e = readJobsWithHint(r, idx, opts, hint)
			return fr, e
		}},
		{AccessesFile, func(r io.Reader, hint int) (*ParseReport, error) {
			var (
				fr *ParseReport
				e  error
			)
			d.Accesses, fr, e = readAccessesWithHint(r, idx, opts, hint)
			return fr, e
		}},
		{PubsFile, func(r io.Reader, hint int) (*ParseReport, error) {
			var (
				fr *ParseReport
				e  error
			)
			d.Publications, fr, e = readPublicationsWithHint(r, idx, opts, hint)
			return fr, e
		}},
	}
	// Logins and transfers are optional trace kinds.
	if _, err := os.Stat(filepath.Join(dir, LoginsFile)); err == nil {
		files = append(files, loadFile{LoginsFile, func(r io.Reader, hint int) (*ParseReport, error) {
			var (
				fr *ParseReport
				e  error
			)
			d.Logins, fr, e = readLoginsWithHint(r, idx, opts, hint)
			return fr, e
		}})
	}
	if _, err := os.Stat(filepath.Join(dir, TransfersFile)); err == nil {
		files = append(files, loadFile{TransfersFile, func(r io.Reader, hint int) (*ParseReport, error) {
			var (
				fr *ParseReport
				e  error
			)
			d.Transfers, fr, e = readTransfersWithHint(r, idx, opts, hint)
			return fr, e
		}})
	}
	if !opts.SkipSnapshot {
		files = append(files, loadFile{SnapshotFile, func(r io.Reader, hint int) (*ParseReport, error) {
			s, fr, e := readSnapshotWithHint(r, idx, opts, hint)
			if e != nil {
				return fr, e
			}
			d.Snapshot = *s
			return fr, nil
		}})
	}
	reps := make([]*ParseReport, len(files))
	errs := make([]error, len(files))
	tasks := make([]func() error, len(files))
	for i := range files {
		tasks[i] = func() error {
			reps[i], errs[i] = loadTraceFileAt(filepath.Join(dir, files[i].name), opts, files[i].fn)
			return nil
		}
	}
	pool := parallel.NewPool(0)
	if err := pool.Run(tasks); err != nil {
		return nil, rep, err
	}
	for i := range files {
		if reps[i] != nil {
			rep.Reports = append(rep.Reports, reps[i])
		}
		if errs[i] != nil {
			return nil, rep, errs[i]
		}
	}
	if err := d.Validate(); err != nil {
		return nil, rep, err
	}
	return d, rep, nil
}
