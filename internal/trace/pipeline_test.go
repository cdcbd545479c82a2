package trace

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"activedr/internal/timeutil"
)

// Pinned ingestion outcomes. Every fixture below is read and checked
// against outcomes pinned in expect_test.go: the records, each file's
// ParseReport with its quarantine line numbers and reasons, and the
// exact error text. Clean fixtures pin their records to what was
// written; damaged ones to what survives the damage.

// errText is err's message, or "" for a nil error.
// readRows decodes r as spec's rows, as every loader does.
func readRows[T any](r io.Reader, byName map[string]UserID, opts ReadOptions, spec rowSpec[T]) ([]T, *ParseReport, error) {
	recs, _, rep, err := readPipelined(r, byName, opts, 0, spec)
	return recs, rep, err
}

// readSnapshot decodes r as a metadata snapshot.
func readSnapshot(r io.Reader, byName map[string]UserID, opts ReadOptions) (*Snapshot, *ParseReport, error) {
	entries, taken, rep, err := readPipelined(r, byName, opts, 0, snapshotSpec)
	if err != nil {
		return nil, rep, err
	}
	return &Snapshot{Taken: timeutil.Time(taken), Entries: entries}, rep, nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// renderReports prints reports the way expect_test.go pins them: a
// "file lines=N" header per report, marked " truncated" when its input
// ended mid-stream, then each quarantined line in ParseError.String
// form.
func renderReports(reps ...*ParseReport) string {
	var b strings.Builder
	for _, r := range reps {
		fmt.Fprintf(&b, "%s lines=%d", r.File, r.Lines)
		if r.Truncated {
			b.WriteString(" truncated")
		}
		b.WriteByte('\n')
		for _, e := range r.Errors {
			fmt.Fprintf(&b, "  %s\n", e)
		}
	}
	return b.String()
}

// outcome renders one reader call: its records (spelled out when a
// few short ones, otherwise counted and their JSON digested), its
// report and its error.
func outcome[T any](recs []T, rep *ParseReport, err error) string {
	var b strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&b, "%+v\n", r)
		if b.Len() > 512 {
			break
		}
	}
	if len(recs) > 4 || b.Len() > 512 {
		js, _ := json.Marshal(recs) // plain record structs always marshal
		b.Reset()
		fmt.Fprintf(&b, "%d records, sha256 %x\n", len(recs), sha256.Sum256(js))
	}
	if rep != nil {
		b.WriteString(renderReports(rep))
	}
	if err != nil {
		fmt.Fprintf(&b, "error: %v\n", err)
	}
	return b.String()
}

// checkLoad loads dir and fails the test unless the dataset (nil for a
// failed load), the rendered reports and the error text are exactly
// the pinned ones.
func checkLoad(t *testing.T, dir string, opts ReadOptions, want *Dataset, wantReports, wantErr string) {
	t.Helper()
	d, rep, err := LoadDatasetWith(dir, opts)
	if got := errText(err); got != wantErr {
		t.Fatalf("err = %q, want %q", got, wantErr)
	}
	if got := renderReports(rep.Reports...); got != wantReports {
		t.Fatalf("reports:\n%s\nwant:\n%s", got, wantReports)
	}
	if !reflect.DeepEqual(d, want) {
		t.Fatal("loaded dataset differs from the pinned one")
	}
}

// checkRead runs read and fails the test unless its rendered outcome
// is exactly want.
func checkRead(t *testing.T, what string, opts ReadOptions, read func(ReadOptions) string, want string) {
	t.Helper()
	if got := read(opts); got != want {
		t.Fatalf("%s:\n%s\nwant:\n%s", what, got, want)
	}
}

// bigDataset synthesizes a dataset large enough that every gzipped
// file spans multiple pipeline blocks, with enough path reuse for the
// intern table to matter.
func bigDataset() *Dataset {
	t0 := timeutil.Date(2016, time.January, 1)
	const nUsers = 200
	d := &Dataset{}
	for i := 0; i < nUsers; i++ {
		arch := ""
		if i%3 == 0 {
			arch = "power"
		}
		d.Users = append(d.Users, User{ID: UserID(i), Name: fmt.Sprintf("u%03d", i),
			Created: t0.Add(timeutil.Days(i % 30)), Archetype: arch})
	}
	for i := 0; i < 20000; i++ {
		d.Jobs = append(d.Jobs, Job{User: UserID(i % nUsers), Submit: t0.Add(timeutil.Duration(i) * 60),
			Duration: timeutil.Duration(1+i%48) * timeutil.Hour, Cores: 16 + i%1024})
	}
	for i := 0; i < 40000; i++ {
		d.Accesses = append(d.Accesses, Access{TS: t0.Add(timeutil.Duration(i) * 30), User: UserID(i % nUsers),
			Create: i%5 == 0, Size: int64(i) * 512,
			Path: fmt.Sprintf("/lustre/atlas/u%03d/proj%d/out-%d.h5", i%nUsers, i%7, i%900)})
	}
	for i := 0; i < 2000; i++ {
		d.Publications = append(d.Publications, Publication{TS: t0.Add(timeutil.Days(i % 365)),
			Citations: i % 40, Authors: []UserID{UserID(i % nUsers), UserID((i + 7) % nUsers)}})
	}
	for i := 0; i < 10000; i++ {
		d.Logins = append(d.Logins, Login{User: UserID(i % nUsers), TS: t0.Add(timeutil.Duration(i) * 77)})
		dir := TransferIn
		if i%2 == 0 {
			dir = TransferOut
		}
		d.Transfers = append(d.Transfers, Transfer{User: UserID(i % nUsers), TS: t0.Add(timeutil.Duration(i) * 91),
			Dir: dir, Bytes: int64(i) * 1 << 20})
	}
	d.Snapshot.Taken = t0
	for i := 0; i < 20000; i++ {
		d.Snapshot.Entries = append(d.Snapshot.Entries, SnapshotEntry{
			Path: fmt.Sprintf("/lustre/atlas/u%03d/proj%d/f%05d.dat", i%nUsers, i%7, i),
			User: UserID(i % nUsers), Size: int64(i) * 4096, Stripes: 1 + i%8,
			ATime: t0.Add(-timeutil.Days(i % 400))})
	}
	return d
}

// rewriteTrace rewrites one trace file (transparently re-gzipping)
// through mutate, which edits its lines.
func rewriteTrace(t *testing.T, path string, mutate func([]string) []string) {
	t.Helper()
	r, closeFn, err := openReader(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	lines = mutate(lines)
	w, closeFn, err := openWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte(strings.Join(lines, "\n") + "\n")); err != nil {
		t.Fatal(err)
	}
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}
}

// messyDataset writes bigDataset to dir with every flavor of damage
// the lenient mode quarantines scattered through each file: short
// rows, unknown users, bad numerics, empty paths, bad and duplicate
// #taken headers, plus blanks, comments and CRLF line endings at both
// ends and the middle of each file.
func messyDataset(t *testing.T, dir string) {
	t.Helper()
	if err := WriteDataset(dir, bigDataset()); err != nil {
		t.Fatal(err)
	}
	splice := func(lines []string, at int, insert ...string) []string {
		out := append([]string{}, lines[:at]...)
		out = append(out, insert...)
		return append(out, lines[at:]...)
	}
	rewriteTrace(t, filepath.Join(dir, UsersFile), func(lines []string) []string {
		lines = splice(lines, 0, "# users header", "", "solo")
		lines = splice(lines, len(lines)/2, "u_bad\tnotanumber", "u900\t1234\tcrlf\r")
		return append(lines, "short")
	})
	rewriteTrace(t, filepath.Join(dir, JobsFile), func(lines []string) []string {
		lines = splice(lines, 1, "ghost\t1\t2\t3", "u000\tx\t2\t3")
		return splice(lines, len(lines)-1, "u001\t1\t2", "# comment", "")
	})
	rewriteTrace(t, filepath.Join(dir, AccessesFile), func(lines []string) []string {
		lines = splice(lines, len(lines)/3, "1\tu000\t0\t5\t", "x\tu000\t0\t5\t/p", "")
		return splice(lines, 2*len(lines)/3, "1\tghost\t0\t5\t/p")
	})
	rewriteTrace(t, filepath.Join(dir, PubsFile), func(lines []string) []string {
		return splice(lines, len(lines)/2, "1\t2\tghost", "1\tx\tu000", "1\t2\tu000,,u001")
	})
	rewriteTrace(t, filepath.Join(dir, LoginsFile), func(lines []string) []string {
		return splice(lines, len(lines)/2, "broken", "zzz\tu000")
	})
	rewriteTrace(t, filepath.Join(dir, TransfersFile), func(lines []string) []string {
		return splice(lines, len(lines)/2, "1\tu000\tsideways\t5", "1\tu000\tin\t-9")
	})
	rewriteTrace(t, filepath.Join(dir, SnapshotFile), func(lines []string) []string {
		lines = splice(lines, 1, "#taken\tzzz", "u000\tx\t2\t3\t/q", "nosuch\t1\t2\t3\t/p")
		return append(lines, "#taken\t777") // last valid header wins
	})
}

// messyWant is the lenient load of messyDataset: the clean dataset
// plus the two damage lines that parse. User u900 (its CRLF ending
// dropped) lands ahead of u098, so every later user's dense ID moves
// up by one, and the trailing "#taken\t777" header wins.
func messyWant() *Dataset {
	d := bigDataset()
	const at = 98
	users := append([]User{}, d.Users[:at]...)
	users = append(users, User{Name: "u900", Created: 1234, Archetype: "crlf"})
	d.Users = append(users, d.Users[at:]...)
	for i := range d.Users {
		d.Users[i].ID = UserID(i)
	}
	shift := func(u *UserID) {
		if *u >= at {
			*u++
		}
	}
	for i := range d.Jobs {
		shift(&d.Jobs[i].User)
	}
	for i := range d.Accesses {
		shift(&d.Accesses[i].User)
	}
	for i := range d.Publications {
		for j := range d.Publications[i].Authors {
			shift(&d.Publications[i].Authors[j])
		}
	}
	for i := range d.Logins {
		shift(&d.Logins[i].User)
	}
	for i := range d.Transfers {
		shift(&d.Transfers[i].User)
	}
	for i := range d.Snapshot.Entries {
		shift(&d.Snapshot.Entries[i].User)
	}
	d.Snapshot.Taken = 777
	return d
}

// truncatedAccesses replaces dir's access log with a gzip stream of
// 2000 generated rows cut at half its compressed length, and returns
// the rows as written.
func truncatedAccesses(t *testing.T, dir string) []Access {
	t.Helper()
	var buf bytes.Buffer
	var rows []Access
	gz := gzip.NewWriter(&buf)
	for i := 0; i < 2000; i++ {
		a := Access{TS: timeutil.Time(i), Size: 5, Path: fmt.Sprintf("/lustre/atlas/u000/f%04d-%x", i, i*2654435761)}
		fmt.Fprintf(gz, "%d\tu000\t0\t5\t%s\n", a.TS, a.Path)
		rows = append(rows, a)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, AccessesFile), buf.Bytes()[:buf.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestPipelinedClean(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDataset(dir, bigDataset()); err != nil {
		t.Fatal(err)
	}
	for _, lenient := range []bool{false, true} {
		checkLoad(t, dir, ReadOptions{Lenient: lenient}, bigDataset(), wantCleanReports, "")
	}
}

// TestLoadedSlicesFitTheirRecords pins how loads size their record
// slices: every slice a load returns has at most len/8 spare capacity,
// so a loaded dataset's heap holds its records, not a guess at their
// count. Most of bigDataset's files span several pipeline blocks, so
// their slices are sized from a projection of the blocks read so far.
func TestLoadedSlicesFitTheirRecords(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDataset(dir, bigDataset()); err != nil {
		t.Fatal(err)
	}
	d, _, err := LoadDatasetWith(dir, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pathsFile := filepath.Join(dir, "paths.tsv.gz")
	paths := make([]string, len(d.Accesses))
	for i := range d.Accesses {
		paths[i] = d.Accesses[i].Path
	}
	if err := WritePathsFile(pathsFile, paths); err != nil {
		t.Fatal(err)
	}
	if paths, err = ReadPathsFile(pathsFile); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file          string
		length, capac int
	}{
		{UsersFile, len(d.Users), cap(d.Users)},
		{JobsFile, len(d.Jobs), cap(d.Jobs)},
		{AccessesFile, len(d.Accesses), cap(d.Accesses)},
		{PubsFile, len(d.Publications), cap(d.Publications)},
		{LoginsFile, len(d.Logins), cap(d.Logins)},
		{TransfersFile, len(d.Transfers), cap(d.Transfers)},
		{SnapshotFile, len(d.Snapshot.Entries), cap(d.Snapshot.Entries)},
		{"paths", len(paths), cap(paths)},
	} {
		if c.length == 0 {
			t.Errorf("%s: loaded no records", c.file)
		} else if spare := c.capac - c.length; spare > c.length/8 {
			t.Errorf("%s: %d records in a slice of capacity %d: spare %.2f×len, want at most 1/8",
				c.file, c.length, c.capac, float64(spare)/float64(c.length))
		}
	}
}

// TestPathsInternedPerFile pins per-file interning: in an access log
// that spans many pipeline blocks, every row holding a path shares that
// path's one string, wherever the blocks fall. It runs at GOMAXPROCS 2,
// where decoders that each interned their own blocks would hold a path
// once per decoder.
func TestPathsInternedPerFile(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	users := []User{{ID: 0, Name: "u000"}}
	var accs []Access
	for i := 0; i < 60000; i++ { // 14,000 paths, each 4 or 5 times, 14,000 rows apart
		accs = append(accs, Access{TS: timeutil.Time(i), Size: 1,
			Path: fmt.Sprintf("/lustre/atlas/u000/proj%d/out-%04d.h5", i%7, i%2000)})
	}
	path := filepath.Join(t.TempDir(), AccessesFile)
	if err := writeFile(path, func(w io.Writer) error { return writeAccesses(w, users, accs) }); err != nil {
		t.Fatal(err)
	}
	if size := uncompressedSizeHint(path); size < 4*pipeBlockSize {
		t.Fatalf("access log holds %d bytes, want at least 4 blocks", size)
	}
	got, _, _, err := loadFile(path, NameIndex(users), ReadOptions{}, accessSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(accs) {
		t.Fatalf("loaded %d accesses, want %d", len(got), len(accs))
	}
	paths := map[string]bool{}
	backings := map[*byte]bool{}
	for i := range got {
		paths[got[i].Path] = true
		backings[unsafe.StringData(got[i].Path)] = true
	}
	if len(backings) != len(paths) {
		t.Fatalf("%d distinct paths held in %d string backings, want one each", len(paths), len(backings))
	}
}

// TestCarriedLinesReuseArenas bounds what the reader allocates for its
// blocks. A block that ends mid-line carries its tail into the next
// arena it takes, so a read whose every block ends mid-line allocates
// at most its pipeArenas arenas, even from an empty pool. Two
// collections empty the pool first, so the bound depends neither on
// what earlier reads left there nor on when the collector runs. A
// reader that grows a new arena for each carried tail allocates about
// a block per block.
func TestCarriedLinesReuseArenas(t *testing.T) {
	const blocks = 16
	line := append(bytes.Repeat([]byte("#"), 999), '\n') // 1,000 bytes: no block ends on a line
	in := bytes.Repeat(line, blocks*pipeBlockSize/len(line))
	runtime.GC()
	runtime.GC() // the pool's primary and victim caches
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := readRows(bytes.NewReader(in), nil, ReadOptions{}, pathSpec); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got, limit := after.TotalAlloc-before.TotalAlloc, uint64(pipeArenas+1)*pipeBlockSize
	t.Logf("a %d-block read of carried lines allocated %d bytes", blocks, got)
	if got > limit {
		t.Fatalf("a %d-block read of carried lines allocated %d bytes, want at most %d: its %d arenas and change",
			blocks, got, limit, pipeArenas)
	}
}

// TestPathTableSizedOnce bounds what interning an access log's paths
// allocates. Two logs of one size and row count are read with their
// size as the hint: one names 4,000 distinct paths, ten rows each
// (570 bytes per distinct path, about a synthetic year's ratio), the
// other one path throughout. The hint sizes both intern tables alike,
// so the first read may allocate more than the second only by its
// extra path strings. A table that starts small and rehashes its way
// up to 4,000 entries allocates its outgrown tables on top. A small
// log read with its hint allocates no more than one read without it,
// whose table starts at the 1,024 entries every read started at.
func TestPathTableSizedOnce(t *testing.T) {
	const paths, rowsPer = 4000, 10
	byName := map[string]UserID{"u0": 0}
	accessLog := func(rows int, distinct bool) []byte {
		var b bytes.Buffer
		for i := 0; i < rows; i++ {
			p := 0
			if distinct {
				p = i % paths
			}
			fmt.Fprintf(&b, "%d\tu0\t0\t100\t/lustre/atlas/u0/proj/run%06d/out.dat\n", 1_000_000+i, p)
		}
		return b.Bytes()
	}
	alloc := func(in []byte, hint int) uint64 {
		runtime.GC()
		runtime.GC() // the pool's primary and victim caches
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, _, err := readPipelined(bytes.NewReader(in), byName, ReadOptions{}, hint, accessSpec); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	many, one := accessLog(paths*rowsPer, true), accessLog(paths*rowsPer, false)
	extra := int64(alloc(many, len(many))) - int64(alloc(one, len(one)))
	limit := int64(paths) * 64 // a 39-byte path string takes a 48-byte slot
	t.Logf("%d distinct paths cost %d bytes more than one", paths, extra)
	if extra > limit {
		t.Fatalf("%d distinct paths cost %d bytes more than one path, want at most %d: their strings",
			paths, extra, limit)
	}
	small := accessLog(100, true)
	if hinted, bare := alloc(small, len(small)), alloc(small, 0); hinted > bare+4<<10 {
		t.Fatalf("a %d-byte log read with its size hint allocated %d bytes, without it %d", len(small), hinted, bare)
	}
}

func TestPipelinedMessy(t *testing.T) {
	dir := t.TempDir()
	messyDataset(t, dir)
	checkLoad(t, dir, ReadOptions{Lenient: true}, messyWant(), wantMessyReports, "")
	// Strict mode aborts on the canonically first bad line.
	checkLoad(t, dir, ReadOptions{}, nil, wantMessyStrictReports, wantMessyStrictErr)
}

func TestPipelinedTruncated(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDataset(dir, sampleDataset()); err != nil {
		t.Fatal(err)
	}
	rows := truncatedAccesses(t, dir)
	want := sampleDataset()
	want.Accesses = append(rows[:wantTruncatedSalvaged:wantTruncatedSalvaged], wantTruncatedLast...)
	checkLoad(t, dir, ReadOptions{Lenient: true}, want, wantTruncatedReports, "")
	checkLoad(t, dir, ReadOptions{}, nil, wantTruncatedStrictReports, wantTruncatedStrictErr)
}

func TestPipelinedMaxErrors(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDataset(dir, sampleDataset()); err != nil {
		t.Fatal(err)
	}
	rewriteTrace(t, filepath.Join(dir, AccessesFile), func(lines []string) []string {
		for i := 0; i < 50; i++ {
			lines = append(lines, fmt.Sprintf("garbage-%d", i))
		}
		return lines
	})
	checkLoad(t, dir, ReadOptions{Lenient: true, MaxErrors: 10}, nil, wantMaxErrorsReports, wantMaxErrorsErr)
}

func TestPipelinedLongLines(t *testing.T) {
	// A line whose content reaches the 4 MiB scanner cap fails with a
	// positioned bufio.ErrTooLong, even in lenient mode; one just under
	// parses fine. The long line sits after a valid one so the error
	// line number is exercised too.
	read := func(in string) func(ReadOptions) string {
		return func(o ReadOptions) string {
			users, rep, err := readRows(strings.NewReader(in), nil, o, userSpec)
			return outcome(users, rep, err)
		}
	}
	tooLong := "u000\t100\n" + strings.Repeat("a", maxLineBytes) + "\t5\n"
	checkRead(t, "too-long line", ReadOptions{}, read(tooLong), wantTooLong)
	checkRead(t, "too-long line lenient", ReadOptions{Lenient: true}, read(tooLong), wantTooLong)

	nearCap := strings.Repeat("b", maxLineBytes-16) + "\t100\n"
	checkRead(t, "near-cap line", ReadOptions{}, read(nearCap), wantNearCap)
}

func TestPipelinedEdgeInputs(t *testing.T) {
	idx := map[string]UserID{"u000": 0}
	for i, c := range wantEdgeInputs {
		users := func(o ReadOptions) string {
			u, rep, err := readRows(strings.NewReader(c.in), nil, o, userSpec)
			return outcome(u, rep, err)
		}
		snapshot := func(o ReadOptions) string {
			s, rep, err := readSnapshot(strings.NewReader(c.in), idx, o)
			if s == nil {
				return outcome[SnapshotEntry](nil, rep, err)
			}
			return fmt.Sprintf("taken %d\n", int64(s.Taken)) + outcome(s.Entries, rep, err)
		}
		checkRead(t, fmt.Sprintf("users input %d", i), ReadOptions{}, users, c.users)
		checkRead(t, fmt.Sprintf("users input %d lenient", i), ReadOptions{Lenient: true}, users, c.usersLenient)
		checkRead(t, fmt.Sprintf("snapshot input %d", i), ReadOptions{}, snapshot, c.snapshot)
		checkRead(t, fmt.Sprintf("snapshot input %d lenient", i), ReadOptions{Lenient: true}, snapshot, c.snapshotLenient)
	}
}

// TestMalformedLineReasons pins, per trace kind, the reason each
// malformed line is quarantined under and the error that aborts a
// strict read of it. Each line sits between two valid rows, so it is
// line 2 of the input.
func TestMalformedLineReasons(t *testing.T) {
	idx := map[string]UserID{"u000": 0, "u001": 1}
	kinds := map[string]struct {
		file, good string
		read       func(io.Reader, ReadOptions) (int, *ParseReport, error)
	}{
		"users": {UsersFile, "u000\t1", func(r io.Reader, o ReadOptions) (int, *ParseReport, error) {
			v, rep, err := readRows(r, nil, o, userSpec)
			return len(v), rep, err
		}},
		"jobs": {JobsFile, "u000\t1\t2\t3", func(r io.Reader, o ReadOptions) (int, *ParseReport, error) {
			v, rep, err := readRows(r, idx, o, jobSpec)
			return len(v), rep, err
		}},
		"accesses": {AccessesFile, "1\tu000\t0\t5\t/p", func(r io.Reader, o ReadOptions) (int, *ParseReport, error) {
			v, rep, err := readRows(r, idx, o, accessSpec)
			return len(v), rep, err
		}},
		"publications": {PubsFile, "1\t2\tu000", func(r io.Reader, o ReadOptions) (int, *ParseReport, error) {
			v, rep, err := readRows(r, idx, o, pubSpec)
			return len(v), rep, err
		}},
		"snapshot": {SnapshotFile, "u000\t1\t2\t3\t/p", func(r io.Reader, o ReadOptions) (int, *ParseReport, error) {
			v, rep, err := readSnapshot(r, idx, o)
			if v == nil {
				return 0, rep, err
			}
			return len(v.Entries), rep, err
		}},
		"logins": {LoginsFile, "1\tu000", func(r io.Reader, o ReadOptions) (int, *ParseReport, error) {
			v, rep, err := readRows(r, idx, o, loginSpec)
			return len(v), rep, err
		}},
		"transfers": {TransfersFile, "1\tu000\tin\t5", func(r io.Reader, o ReadOptions) (int, *ParseReport, error) {
			v, rep, err := readRows(r, idx, o, transferSpec)
			return len(v), rep, err
		}},
	}
	for _, c := range wantMalformedLines {
		k, ok := kinds[c.kind]
		if !ok {
			t.Fatalf("unknown trace kind %q", c.kind)
		}
		in := k.good + "\n" + c.line + "\n" + k.good + "\n"
		n, rep, err := k.read(strings.NewReader(in), ReadOptions{Lenient: true})
		want := []ParseError{{File: k.file, Line: 2, Reason: c.reason}}
		if err != nil || n != 2 || rep.Lines != 3 || !reflect.DeepEqual(rep.Errors, want) {
			t.Errorf("%s %q: %d records, report %+v, err %v; want 2 records and %+v",
				c.kind, c.line, n, rep, err, want)
		}
		_, _, err = k.read(strings.NewReader(in), ReadOptions{})
		if want := fmt.Sprintf("trace: %s line 2: %s", k.file, c.reason); errText(err) != want {
			t.Errorf("%s %q: strict err = %v, want %q", c.kind, c.line, err, want)
		}
	}
}

// checkSeries loads the snapshot series under dir and fails the test
// unless the snapshots (nil for a failed load), the rendered reports
// and the error text, with "$DIR" standing for dir, are exactly the
// pinned ones.
func checkSeries(t *testing.T, dir string, idx map[string]UserID, opts ReadOptions, want []*Snapshot, wantReports, wantErr string) {
	t.Helper()
	got, reps, err := LoadSnapshotSeriesWith(dir, idx, opts)
	if e, w := errText(err), strings.ReplaceAll(wantErr, "$DIR", dir); e != w {
		t.Fatalf("err = %q, want %q", e, w)
	}
	if r := renderReports(reps...); r != wantReports {
		t.Fatalf("reports:\n%s\nwant:\n%s", r, wantReports)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("loaded series differs from the pinned one")
	}
}

func TestSnapshotSeriesPipelined(t *testing.T) {
	dir := t.TempDir()
	d := bigDataset()
	t0 := timeutil.Date(2016, time.March, 1)
	var snaps []*Snapshot
	for w := 0; w < 5; w++ {
		s := &Snapshot{Taken: t0.Add(timeutil.Days(7 * w))}
		for i := 0; i < 3000; i++ {
			s.Entries = append(s.Entries, SnapshotEntry{
				Path: fmt.Sprintf("/lustre/atlas/u%03d/w%d/f%04d", i%200, w, i),
				User: UserID(i % 200), Size: int64(i) * 1024, Stripes: 1 + i%4,
				ATime: s.Taken - timeutil.Time(i)})
		}
		snaps = append(snaps, s)
	}
	if err := WriteSnapshotSeries(dir, d.Users, snaps); err != nil {
		t.Fatal(err)
	}
	idx := NameIndex(d.Users)
	// Reports carry the base file name; quarantines keep the logical
	// snapshot file name.
	checkSeries(t, dir, idx, ReadOptions{}, snaps, wantSeriesReports, "")

	// Truncate the third file: lenient mode salvages a prefix and flags
	// that report Truncated (the close error is not swallowed), while
	// strict mode refuses the series.
	matches, err := filepath.Glob(filepath.Join(dir, "snapshot-*.tsv.gz"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(matches[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(matches[2], raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	checkSeries(t, dir, idx, ReadOptions{}, nil, wantSeriesStrictReports, wantSeriesStrictErr)
	salvaged := append([]*Snapshot{}, snaps...)
	salvaged[2] = &Snapshot{Taken: snaps[2].Taken,
		Entries: append(snaps[2].Entries[:wantSeriesSalvaged:wantSeriesSalvaged], wantSeriesSalvagedLast...)}
	checkSeries(t, dir, idx, ReadOptions{Lenient: true}, salvaged, wantSeriesLenientReports, "")
}

func TestLoadSnapshotSeriesOrdersByTaken(t *testing.T) {
	// File names deliberately disagree with capture times: the result
	// must be ordered by Snapshot.Taken, the contract.
	dir := t.TempDir()
	users := []User{{ID: 0, Name: "u000"}}
	later := &Snapshot{Taken: timeutil.Date(2016, time.June, 1),
		Entries: []SnapshotEntry{{Path: "/a", User: 0, Size: 1, Stripes: 1}}}
	earlier := &Snapshot{Taken: timeutil.Date(2016, time.January, 1),
		Entries: []SnapshotEntry{{Path: "/b", User: 0, Size: 2, Stripes: 1}}}
	// Lexically first file carries the later capture time.
	if err := WriteSnapshotFile(filepath.Join(dir, "snapshot-00-mislabeled.tsv.gz"), users, later); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshotFile(filepath.Join(dir, "snapshot-99-mislabeled.tsv.gz"), users, earlier); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadSnapshotSeriesWith(dir, NameIndex(users), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Taken != earlier.Taken || got[1].Taken != later.Taken {
		t.Fatalf("series not ordered by Taken: %d, %d", got[0].Taken, got[1].Taken)
	}
}

// TestWriteDatasetParallelMatchesSequential pins the concurrent
// dataset writer to the per-file writers run one at a time: every
// file WriteDataset produces decompresses to exactly the bytes its
// per-file writer emits.
func TestWriteDatasetParallelMatchesSequential(t *testing.T) {
	d := bigDataset()
	dir := t.TempDir()
	if err := WriteDataset(dir, d); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name  string
		write func(w *bytes.Buffer) error
	}{
		{UsersFile, func(w *bytes.Buffer) error { return writeUsers(w, d.Users) }},
		{JobsFile, func(w *bytes.Buffer) error { return writeJobs(w, d.Users, d.Jobs) }},
		{AccessesFile, func(w *bytes.Buffer) error { return writeAccesses(w, d.Users, d.Accesses) }},
		{PubsFile, func(w *bytes.Buffer) error { return writePublications(w, d.Users, d.Publications) }},
		{LoginsFile, func(w *bytes.Buffer) error { return writeLogins(w, d.Users, d.Logins) }},
		{TransfersFile, func(w *bytes.Buffer) error { return writeTransfers(w, d.Users, d.Transfers) }},
		{SnapshotFile, func(w *bytes.Buffer) error { return WriteSnapshot(w, d.Users, &d.Snapshot) }},
	} {
		var want bytes.Buffer
		if err := f.write(&want); err != nil {
			t.Fatal(err)
		}
		r, closeFn, err := openReader(filepath.Join(dir, f.name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(r)
		if cerr := closeFn(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: written file (%d bytes) differs from its writer's output (%d bytes)", f.name, len(got), want.Len())
		}
	}
}

// truncateGzip cuts a gzipped trace file to half its compressed
// length: a strict read of it fails at close (unexpected EOF), a
// lenient read salvages the prefix and sets ParseReport.Truncated.
func truncateGzip(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFanOutErrorPriority pins the concurrent fan-out's first-error-
// in-canonical-order rule when two files fail for different reasons in
// the same load. The fatal error of the canonically earlier file must
// win, with the reports truncated at that file, regardless of which
// error class (MaxErrors cap vs a failed close on a cut-short gzip
// member) hits which file, and a fatal error on a later file must not
// erase an earlier file's non-fatal salvage report.
func TestFanOutErrorPriority(t *testing.T) {
	garbage := func(lines []string) []string {
		for i := 0; i < 20; i++ {
			lines = append(lines, fmt.Sprintf("garbage-%d", i))
		}
		return lines
	}
	t.Run("MaxErrorsBeforeTruncation", func(t *testing.T) {
		// jobs trips the quarantine cap; accesses (canonically later)
		// is cut short. The cap error wins and the accesses report is
		// dropped.
		dir := t.TempDir()
		if err := WriteDataset(dir, sampleDataset()); err != nil {
			t.Fatal(err)
		}
		rewriteTrace(t, filepath.Join(dir, JobsFile), garbage)
		truncateGzip(t, filepath.Join(dir, AccessesFile))
		checkLoad(t, dir, ReadOptions{Lenient: true, MaxErrors: 5}, nil, wantFanOutCapReports, wantFanOutCapErr)
	})

	t.Run("TruncationBeforeParseError", func(t *testing.T) {
		// Strict mode: jobs fails at close (cut-short gzip), accesses
		// holds a malformed line that also aborts. The close failure of
		// the canonically earlier file is the one reported.
		dir := t.TempDir()
		if err := WriteDataset(dir, sampleDataset()); err != nil {
			t.Fatal(err)
		}
		truncateGzip(t, filepath.Join(dir, JobsFile))
		rewriteTrace(t, filepath.Join(dir, AccessesFile), func(lines []string) []string {
			return append(lines, "garbage")
		})
		checkLoad(t, dir, ReadOptions{}, nil, wantFanOutCloseReports, wantFanOutCloseErr)
	})

	t.Run("LaterFatalKeepsEarlierSalvage", func(t *testing.T) {
		// Lenient mode: accesses is cut short (salvaged, non-fatal),
		// publications (canonically later) trips the cap. The fatal cap
		// error surfaces, and the accesses salvage report survives in
		// front of it with its Truncated flag intact.
		dir := t.TempDir()
		if err := WriteDataset(dir, sampleDataset()); err != nil {
			t.Fatal(err)
		}
		truncateGzip(t, filepath.Join(dir, AccessesFile))
		rewriteTrace(t, filepath.Join(dir, PubsFile), garbage)
		checkLoad(t, dir, ReadOptions{Lenient: true, MaxErrors: 5}, nil, wantFanOutSalvageReports, wantFanOutSalvageErr)
	})
}

// TestPipelinedMultiMemberGzip pins quarantine line numbers across
// concatenated gzip members. gzip allows a file to be several complete
// deflate streams back to back (the standard output of `cat a.gz b.gz`
// or a rotated-and-joined log); Go's gzip.Reader splices them into one
// logical stream by default. Line numbers in ParseReports must be
// absolute positions in that logical stream: a decoder or scanner
// that restarted its count at a member boundary would report
// relative-to-member numbers, and every other fixture is a single
// member.
func TestPipelinedMultiMemberGzip(t *testing.T) {
	const perMember = 8000 // ~400KiB decompressed per member, spans pipeline blocks
	// build writes the members (bad rows keyed by in-member index) and
	// returns the dataset directory and the valid rows as written.
	build := func(t *testing.T, members []map[int]string, truncateLast bool) (string, []Access) {
		t.Helper()
		dir := t.TempDir()
		if err := WriteDataset(dir, sampleDataset()); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		var rows []Access
		line := 0
		for mi, badAt := range members {
			start := buf.Len()
			gz := gzip.NewWriter(&buf)
			for i := 0; i < perMember; i++ {
				line++
				if junk, ok := badAt[i]; ok {
					fmt.Fprintf(gz, "%s\n", junk)
					continue
				}
				a := Access{TS: timeutil.Time(line), Size: 5, Path: fmt.Sprintf("/lustre/atlas/u000/mm%06d.dat", line)}
				fmt.Fprintf(gz, "%d\tu000\t0\t5\t%s\n", a.TS, a.Path)
				rows = append(rows, a)
			}
			if err := gz.Close(); err != nil {
				t.Fatal(err)
			}
			if truncateLast && mi == len(members)-1 {
				buf.Truncate(start + (buf.Len()-start)/2)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, AccessesFile), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir, rows
	}

	t.Run("absolute line numbers", func(t *testing.T) {
		// Bad lines at a member's first row, its last row, and mid-member,
		// all in members ≥ 2 so every expected number exceeds perMember:
		// a per-member reset would be off by a full member's line count.
		dir, rows := build(t, []map[int]string{
			{},
			{0: "garbage-first-of-member-2", 100: "short", perMember - 1: "garbage-last-of-member-2"},
			{123: "x\tu000\t0\t5\t/p"},
		}, false)
		want := sampleDataset()
		want.Accesses = rows
		checkLoad(t, dir, ReadOptions{Lenient: true}, want, wantMultiMemberReports, "")
		// Strict mode aborts at the same absolute position: the first
		// row of member 2.
		checkLoad(t, dir, ReadOptions{}, nil, wantMultiMemberStrictReports, wantMultiMemberStrictErr)
	})

	t.Run("truncated final member", func(t *testing.T) {
		// A cut-short last member must not disturb the absolute numbers
		// of quarantines in earlier members, and the salvage keeps every
		// full line that made it through the inflate.
		dir, rows := build(t, []map[int]string{
			{},
			{4321: "mid-member-2-garbage"},
			{},
		}, true)
		want := sampleDataset()
		want.Accesses = rows[:wantMultiMemberSalvaged]
		checkLoad(t, dir, ReadOptions{Lenient: true}, want, wantMultiMemberTruncReports, "")
	})
}
