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

// lineScanner wraps bufio.Scanner with a large buffer (snapshot rows
// carry long paths) and line counting for error messages. Only the
// sequential readers use it; the pipelined path reproduces its exact
// semantics (see pipeline.go).
type lineScanner struct {
	s    *bufio.Scanner
	line int
	name string
}

func newLineScanner(r io.Reader, name string) *lineScanner {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	return &lineScanner{s: s, name: name}
}

func (l *lineScanner) scan() bool {
	ok := l.s.Scan()
	if ok {
		l.line++
	}
	return ok
}

func (l *lineScanner) text() string { return l.s.Text() }

func (l *lineScanner) err() error {
	if e := l.s.Err(); e != nil {
		return fmt.Errorf("trace: %s line %d: %w", l.name, l.line+1, e)
	}
	return nil
}

func (l *lineScanner) errorf(format string, args ...any) error {
	return fmt.Errorf("trace: %s line %d: %s", l.name, l.line, fmt.Sprintf(format, args...))
}

func parseInt(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }

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

// ReadUsers parses a user list, assigning dense IDs in file order.
func ReadUsers(r io.Reader) ([]User, error) {
	users, _, err := ReadUsersWith(r, ReadOptions{})
	return users, err
}

// ReadUsersWith parses a user list under the given strictness;
// quarantined lines do not consume an ID.
func ReadUsersWith(r io.Reader, opts ReadOptions) ([]User, *ParseReport, error) {
	return readUsersWithHint(r, opts, 0)
}

func readUsersWithHint(r io.Reader, opts ReadOptions, hint int) ([]User, *ParseReport, error) {
	if opts.Sequential {
		return readUsersSeq(r, opts)
	}
	users, _, rep, err := readPipelined(r, nil, opts, hint, userSpec)
	if err != nil {
		return nil, rep, err
	}
	for i := range users {
		users[i].ID = UserID(i)
	}
	return users, rep, nil
}

func readUsersSeq(r io.Reader, opts ReadOptions) ([]User, *ParseReport, error) {
	ls := newLineScanner(r, UsersFile)
	rep := &ParseReport{File: UsersFile}
	var users []User
	for ls.scan() {
		line := ls.text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rep.Lines++
		parts := strings.Split(line, "\t")
		if len(parts) < 2 {
			if err := rep.quarantine(ls, opts, fmt.Errorf("want ≥2 fields, got %d", len(parts))); err != nil {
				return nil, rep, err
			}
			continue
		}
		created, err := parseInt(parts[1])
		if err != nil {
			if err := rep.quarantine(ls, opts, fmt.Errorf("bad created timestamp %q", parts[1])); err != nil {
				return nil, rep, err
			}
			continue
		}
		u := User{ID: UserID(len(users)), Name: parts[0], Created: timeutil.Time(created)}
		if len(parts) >= 3 {
			u.Archetype = parts[2]
		}
		users = append(users, u)
	}
	if err := rep.finish(ls, opts); err != nil {
		return nil, rep, err
	}
	return users, rep, nil
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

// ReadJobs parses a job log using the name→ID index.
func ReadJobs(r io.Reader, byName map[string]UserID) ([]Job, error) {
	jobs, _, err := ReadJobsWith(r, byName, ReadOptions{})
	return jobs, err
}

// ReadJobsWith parses a job log under the given strictness.
func ReadJobsWith(r io.Reader, byName map[string]UserID, opts ReadOptions) ([]Job, *ParseReport, error) {
	return readJobsWithHint(r, byName, opts, 0)
}

func readJobsWithHint(r io.Reader, byName map[string]UserID, opts ReadOptions, hint int) ([]Job, *ParseReport, error) {
	if opts.Sequential {
		return readJobsSeq(r, byName, opts)
	}
	jobs, _, rep, err := readPipelined(r, byName, opts, hint, jobSpec)
	if err != nil {
		return nil, rep, err
	}
	return jobs, rep, nil
}

func readJobsSeq(r io.Reader, byName map[string]UserID, opts ReadOptions) ([]Job, *ParseReport, error) {
	ls := newLineScanner(r, JobsFile)
	rep := &ParseReport{File: JobsFile}
	var jobs []Job
	for ls.scan() {
		line := ls.text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rep.Lines++
		j, perr := parseJobLine(line, byName)
		if perr != nil {
			if err := rep.quarantine(ls, opts, perr); err != nil {
				return nil, rep, err
			}
			continue
		}
		jobs = append(jobs, j)
	}
	if err := rep.finish(ls, opts); err != nil {
		return nil, rep, err
	}
	return jobs, rep, nil
}

func parseJobLine(line string, byName map[string]UserID) (Job, error) {
	parts := strings.Split(line, "\t")
	if len(parts) != 4 {
		return Job{}, fmt.Errorf("want 4 fields, got %d", len(parts))
	}
	uid, ok := byName[parts[0]]
	if !ok {
		return Job{}, fmt.Errorf("unknown user %q", parts[0])
	}
	submit, err1 := parseInt(parts[1])
	dur, err2 := parseInt(parts[2])
	cores, err3 := parseInt(parts[3])
	if err1 != nil || err2 != nil || err3 != nil {
		return Job{}, fmt.Errorf("bad numeric field in %q", line)
	}
	return Job{
		User:     uid,
		Submit:   timeutil.Time(submit),
		Duration: timeutil.Duration(dur),
		Cores:    int(cores),
	}, nil
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
		buf = strconv.AppendInt(buf[:0], int64(a.TS), 10)
		buf = append(buf, '\t')
		buf = append(buf, users[a.User].Name...)
		if a.Create {
			buf = append(buf, '\t', '1', '\t')
		} else {
			buf = append(buf, '\t', '0', '\t')
		}
		buf = strconv.AppendInt(buf, a.Size, 10)
		buf = append(buf, '\t')
		buf = append(buf, a.Path...)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			*bp = buf
			return err
		}
	}
	*bp = buf
	return bw.Flush()
}

// ReadAccesses parses an application log.
func ReadAccesses(r io.Reader, byName map[string]UserID) ([]Access, error) {
	accs, _, err := ReadAccessesWith(r, byName, ReadOptions{})
	return accs, err
}

// ReadAccessesWith parses an application log under the given
// strictness.
func ReadAccessesWith(r io.Reader, byName map[string]UserID, opts ReadOptions) ([]Access, *ParseReport, error) {
	return readAccessesWithHint(r, byName, opts, 0)
}

func readAccessesWithHint(r io.Reader, byName map[string]UserID, opts ReadOptions, hint int) ([]Access, *ParseReport, error) {
	if opts.Sequential {
		return readAccessesSeq(r, byName, opts)
	}
	accs, _, rep, err := readPipelined(r, byName, opts, hint, accessSpec)
	if err != nil {
		return nil, rep, err
	}
	return accs, rep, nil
}

func readAccessesSeq(r io.Reader, byName map[string]UserID, opts ReadOptions) ([]Access, *ParseReport, error) {
	ls := newLineScanner(r, AccessesFile)
	rep := &ParseReport{File: AccessesFile}
	var accs []Access
	for ls.scan() {
		line := ls.text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rep.Lines++
		a, perr := parseAccessLine(line, byName)
		if perr != nil {
			if err := rep.quarantine(ls, opts, perr); err != nil {
				return nil, rep, err
			}
			continue
		}
		accs = append(accs, a)
	}
	if err := rep.finish(ls, opts); err != nil {
		return nil, rep, err
	}
	return accs, rep, nil
}

func parseAccessLine(line string, byName map[string]UserID) (Access, error) {
	parts := strings.SplitN(line, "\t", 5)
	if len(parts) != 5 {
		return Access{}, fmt.Errorf("want 5 fields, got %d", len(parts))
	}
	ts, err1 := parseInt(parts[0])
	uid, ok := byName[parts[1]]
	create, err2 := parseInt(parts[2])
	size, err3 := parseInt(parts[3])
	if err1 != nil || err2 != nil || err3 != nil {
		return Access{}, fmt.Errorf("bad numeric field in %q", line)
	}
	if !ok {
		return Access{}, fmt.Errorf("unknown user %q", parts[1])
	}
	if parts[4] == "" {
		return Access{}, fmt.Errorf("empty path")
	}
	return Access{
		TS:     timeutil.Time(ts),
		User:   uid,
		Create: create != 0,
		Size:   size,
		Path:   parts[4],
	}, nil
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

// ReadPublications parses a publication list.
func ReadPublications(r io.Reader, byName map[string]UserID) ([]Publication, error) {
	pubs, _, err := ReadPublicationsWith(r, byName, ReadOptions{})
	return pubs, err
}

// ReadPublicationsWith parses a publication list under the given
// strictness.
func ReadPublicationsWith(r io.Reader, byName map[string]UserID, opts ReadOptions) ([]Publication, *ParseReport, error) {
	return readPublicationsWithHint(r, byName, opts, 0)
}

func readPublicationsWithHint(r io.Reader, byName map[string]UserID, opts ReadOptions, hint int) ([]Publication, *ParseReport, error) {
	if opts.Sequential {
		return readPublicationsSeq(r, byName, opts)
	}
	pubs, _, rep, err := readPipelined(r, byName, opts, hint, pubSpec)
	if err != nil {
		return nil, rep, err
	}
	return pubs, rep, nil
}

func readPublicationsSeq(r io.Reader, byName map[string]UserID, opts ReadOptions) ([]Publication, *ParseReport, error) {
	ls := newLineScanner(r, PubsFile)
	rep := &ParseReport{File: PubsFile}
	var pubs []Publication
	for ls.scan() {
		line := ls.text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rep.Lines++
		p, perr := parsePublicationLine(line, byName)
		if perr != nil {
			if err := rep.quarantine(ls, opts, perr); err != nil {
				return nil, rep, err
			}
			continue
		}
		pubs = append(pubs, p)
	}
	if err := rep.finish(ls, opts); err != nil {
		return nil, rep, err
	}
	return pubs, rep, nil
}

func parsePublicationLine(line string, byName map[string]UserID) (Publication, error) {
	parts := strings.Split(line, "\t")
	if len(parts) != 3 {
		return Publication{}, fmt.Errorf("want 3 fields, got %d", len(parts))
	}
	ts, err1 := parseInt(parts[0])
	cites, err2 := parseInt(parts[1])
	if err1 != nil || err2 != nil {
		return Publication{}, fmt.Errorf("bad numeric field in %q", line)
	}
	names := strings.Split(parts[2], ",")
	authors := make([]UserID, 0, len(names))
	for _, name := range names {
		uid, ok := byName[name]
		if !ok {
			return Publication{}, fmt.Errorf("unknown author %q", name)
		}
		authors = append(authors, uid)
	}
	return Publication{
		TS:        timeutil.Time(ts),
		Citations: int(cites),
		Authors:   authors,
	}, nil
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
	if opts.Sequential {
		return readSnapshotSeq(r, byName, opts)
	}
	entries, taken, rep, err := readPipelined(r, byName, opts, hint, snapshotSpec)
	if err != nil {
		return nil, rep, err
	}
	return &Snapshot{Taken: timeutil.Time(taken), Entries: entries}, rep, nil
}

func readSnapshotSeq(r io.Reader, byName map[string]UserID, opts ReadOptions) (*Snapshot, *ParseReport, error) {
	ls := newLineScanner(r, SnapshotFile)
	rep := &ParseReport{File: SnapshotFile}
	s := &Snapshot{}
	for ls.scan() {
		line := ls.text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#taken\t") {
			ts, err := parseInt(strings.TrimPrefix(line, "#taken\t"))
			if err != nil {
				rep.Lines++
				if err := rep.quarantine(ls, opts, errors.New("bad taken timestamp")); err != nil {
					return nil, rep, err
				}
				continue
			}
			s.Taken = timeutil.Time(ts)
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		rep.Lines++
		e, perr := parseSnapshotLine(line, byName)
		if perr != nil {
			if err := rep.quarantine(ls, opts, perr); err != nil {
				return nil, rep, err
			}
			continue
		}
		s.Entries = append(s.Entries, e)
	}
	if err := rep.finish(ls, opts); err != nil {
		return nil, rep, err
	}
	return s, rep, nil
}

func parseSnapshotLine(line string, byName map[string]UserID) (SnapshotEntry, error) {
	parts := strings.SplitN(line, "\t", 5)
	if len(parts) != 5 {
		return SnapshotEntry{}, fmt.Errorf("want 5 fields, got %d", len(parts))
	}
	uid, ok := byName[parts[0]]
	if !ok {
		return SnapshotEntry{}, fmt.Errorf("unknown user %q", parts[0])
	}
	size, err1 := parseInt(parts[1])
	stripes, err2 := parseInt(parts[2])
	atime, err3 := parseInt(parts[3])
	if err1 != nil || err2 != nil || err3 != nil {
		return SnapshotEntry{}, fmt.Errorf("bad numeric field in %q", line)
	}
	if parts[4] == "" {
		return SnapshotEntry{}, fmt.Errorf("empty path")
	}
	return SnapshotEntry{
		Path:    parts[4],
		User:    uid,
		Size:    size,
		Stripes: int(stripes),
		ATime:   timeutil.Time(atime),
	}, nil
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

// LoadSnapshotSeries reads every snapshot-*.tsv.gz under dir, sorted
// by capture time.
func LoadSnapshotSeries(dir string, byName map[string]UserID) ([]*Snapshot, error) {
	snaps, _, err := LoadSnapshotSeriesWith(dir, byName, ReadOptions{})
	return snaps, err
}

// LoadSnapshotSeriesWith reads every snapshot-*.tsv.gz under dir
// under the given strictness, decoding one worker per file unless
// opts.Sequential. The snapshots are ordered by capture time —
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
	// slot order both decode modes share.
	snaps := make([]*Snapshot, len(matches))
	reps := make([]*ParseReport, len(matches))
	errs := make([]error, len(matches))
	loadOne := func(i int) {
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
	if opts.Sequential {
		for i := range matches {
			loadOne(i)
			if errs[i] != nil {
				break
			}
		}
	} else {
		pool := parallel.NewPool(0)
		if err := pool.RunShards(len(matches), func(rank, lo, hi int) error {
			for i := lo; i < hi; i++ {
				loadOne(i)
			}
			return nil
		}); err != nil {
			return nil, nil, err
		}
	}
	// First failure in glob order wins; its report (and those of the
	// files before it) are kept, later files' dropped — matching the
	// sequential stop-at-first-error shape.
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
// concurrently, each through the pipelined decoder, unless
// opts.Sequential selects the original one-file-at-a-time path. Both
// paths produce bit-identical results: the DatasetReport lists the
// per-file reports in canonical file order, and on failure the first
// error in that order wins, with the reports truncated at the failing
// file exactly as a sequential stop-at-first-error read would leave
// them.
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
	loadOne := func(i int) {
		reps[i], errs[i] = loadTraceFileAt(filepath.Join(dir, files[i].name), opts, files[i].fn)
	}
	if opts.Sequential {
		for i := range files {
			loadOne(i)
			if errs[i] != nil {
				break
			}
		}
	} else {
		tasks := make([]func() error, len(files))
		for i := range files {
			i := i
			tasks[i] = func() error {
				loadOne(i)
				return nil
			}
		}
		pool := parallel.NewPool(0)
		if err := pool.Run(tasks); err != nil {
			return nil, rep, err
		}
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
