package trace

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"activedr/internal/timeutil"
)

// Equivalence proofs for the pipelined ingestion path: on every
// input — clean, malformed, truncated, over the MaxErrors cap — the
// parallel pipeline must produce the same Dataset, the same
// DatasetReport (line numbers included), and the same error text as
// ReadOptions.Sequential. PR 1's lenient-parsing guarantees survive
// the concurrency because these tests say so, not by assumption.

func seqOpts(o ReadOptions) ReadOptions {
	o.Sequential = true
	return o
}

func sameErr(t *testing.T, what string, pipelined, sequential error) {
	t.Helper()
	if (pipelined == nil) != (sequential == nil) {
		t.Fatalf("%s: pipelined err = %v, sequential err = %v", what, pipelined, sequential)
	}
	if pipelined != nil && pipelined.Error() != sequential.Error() {
		t.Fatalf("%s: error text differs:\n pipelined:  %v\n sequential: %v", what, pipelined, sequential)
	}
}

// loadBoth loads dir through both paths and fails the test unless the
// datasets, reports, and errors are bit-identical.
func loadBoth(t *testing.T, dir string, opts ReadOptions) (*Dataset, *DatasetReport, error) {
	t.Helper()
	pd, pr, perr := LoadDatasetWith(dir, opts)
	sd, sr, serr := LoadDatasetWith(dir, seqOpts(opts))
	sameErr(t, "LoadDatasetWith", perr, serr)
	if !reflect.DeepEqual(pd, sd) {
		t.Fatalf("datasets differ between pipelined and sequential load (lenient=%v)", opts.Lenient)
	}
	if !reflect.DeepEqual(pr, sr) {
		t.Fatalf("reports differ between pipelined and sequential load (lenient=%v):\n pipelined:  %+v\n sequential: %+v", opts.Lenient, pr, sr)
	}
	return pd, pr, perr
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
			Duration: timeutil.Hours(1 + i%48), Cores: 16 + i%1024})
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

func TestPipelinedMatchesSequentialClean(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDataset(dir, bigDataset()); err != nil {
		t.Fatal(err)
	}
	for _, lenient := range []bool{false, true} {
		d, rep, err := loadBoth(t, dir, ReadOptions{Lenient: lenient})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean() {
			t.Fatalf("clean dataset reported dirty: %s", rep.Summary())
		}
		if len(d.Accesses) != 40000 || len(d.Snapshot.Entries) != 20000 {
			t.Fatalf("load dropped records: %d accesses, %d snapshot entries",
				len(d.Accesses), len(d.Snapshot.Entries))
		}
	}
}

func TestPipelinedMatchesSequentialMessy(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDataset(dir, bigDataset()); err != nil {
		t.Fatal(err)
	}
	// Scatter every flavor of damage the lenient mode quarantines:
	// short rows, unknown users, bad numerics, empty paths, bad and
	// duplicate #taken headers, plus blanks, comments, and CRLF line
	// endings sprinkled at both ends and the middle of each file.
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

	d, rep, err := loadBoth(t, dir, ReadOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors() == 0 {
		t.Fatal("messy dataset produced no quarantined lines")
	}
	if int64(d.Snapshot.Taken) != 777 {
		t.Fatalf("Taken = %d, want the last valid header 777", int64(d.Snapshot.Taken))
	}
	// Strict mode aborts on the first bad line with the identical
	// positioned error on both paths.
	if _, _, err := loadBoth(t, dir, ReadOptions{}); err == nil {
		t.Fatal("strict load accepted messy dataset")
	}
}

func TestPipelinedMatchesSequentialTruncated(t *testing.T) {
	dir := t.TempDir()
	if err := WriteDataset(dir, sampleDataset()); err != nil {
		t.Fatal(err)
	}
	const total = 2000
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	for i := 0; i < total; i++ {
		fmt.Fprintf(gz, "%d\tu000\t0\t5\t/lustre/atlas/u000/f%04d-%x\n", i, i, i*2654435761)
	}
	gz.Close()
	trunc := buf.Bytes()[:buf.Len()/2]
	if err := os.WriteFile(filepath.Join(dir, AccessesFile), trunc, 0o644); err != nil {
		t.Fatal(err)
	}

	d, rep, err := loadBoth(t, dir, ReadOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated() {
		t.Fatalf("truncation not reported: %s", rep.Summary())
	}
	if len(d.Accesses) == 0 || len(d.Accesses) >= total {
		t.Fatalf("salvaged %d accesses, want a proper non-empty prefix", len(d.Accesses))
	}
	if _, _, err := loadBoth(t, dir, ReadOptions{}); err == nil {
		t.Fatal("strict load accepted truncated gzip")
	}
}

func TestPipelinedMatchesSequentialMaxErrors(t *testing.T) {
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
	_, rep, err := loadBoth(t, dir, ReadOptions{Lenient: true, MaxErrors: 10})
	if err == nil {
		t.Fatal("load survived past MaxErrors")
	}
	if !strings.Contains(err.Error(), "more than 10 malformed lines") {
		t.Fatalf("err = %v", err)
	}
	last := rep.Reports[len(rep.Reports)-1]
	if last.File != AccessesFile || len(last.Errors) != 10 {
		t.Fatalf("aborting report = %+v", last)
	}
}

func TestPipelinedLongLines(t *testing.T) {
	// A line whose content reaches the 4 MiB scanner cap fails with
	// the same positioned bufio.ErrTooLong on both paths; one just
	// under parses fine. The long line sits after a valid one so the
	// error line number is exercised too.
	long := strings.Repeat("a", maxLineBytes)
	in := "u000\t100\n" + long + "\t5\n"
	_, _, perr := ReadUsersWith(strings.NewReader(in), ReadOptions{})
	_, _, serr := ReadUsersWith(strings.NewReader(in), ReadOptions{Sequential: true})
	sameErr(t, "too-long line", perr, serr)
	if perr == nil || !strings.Contains(perr.Error(), "token too long") {
		t.Fatalf("err = %v, want bufio.ErrTooLong", perr)
	}
	// Even lenient mode cannot salvage an over-long line.
	_, _, perr = ReadUsersWith(strings.NewReader(in), ReadOptions{Lenient: true})
	_, _, serr = ReadUsersWith(strings.NewReader(in), ReadOptions{Lenient: true, Sequential: true})
	sameErr(t, "too-long line lenient", perr, serr)
	if perr == nil {
		t.Fatal("lenient read accepted an over-long line")
	}

	ok := strings.Repeat("b", maxLineBytes-16)
	in = ok + "\t100\n"
	pu, prep, perr := ReadUsersWith(strings.NewReader(in), ReadOptions{})
	su, srep, serr := ReadUsersWith(strings.NewReader(in), ReadOptions{Sequential: true})
	sameErr(t, "near-cap line", perr, serr)
	if perr != nil {
		t.Fatal(perr)
	}
	if !reflect.DeepEqual(pu, su) || !reflect.DeepEqual(prep, srep) {
		t.Fatal("near-cap line parses differ")
	}
	if len(pu) != 1 || len(pu[0].Name) != maxLineBytes-16 {
		t.Fatalf("near-cap user mangled: %d users", len(pu))
	}
}

func TestPipelinedEdgeInputs(t *testing.T) {
	idx := map[string]UserID{"u000": 0}
	inputs := []string{
		"",
		"\n",
		"\r\n",
		"#only a comment\n",
		"u000\t1",                  // no trailing newline
		"u000\t1\r\n\r\nu000\t2\r", // CRLF endings, trailing CR
		"\t\n",
		strings.Repeat("u000\t7\n", 100000), // multi-block
	}
	for _, lenient := range []bool{false, true} {
		opts := ReadOptions{Lenient: lenient}
		for i, in := range inputs {
			pu, prep, perr := ReadUsersWith(strings.NewReader(in), opts)
			su, srep, serr := ReadUsersWith(strings.NewReader(in), seqOpts(opts))
			sameErr(t, fmt.Sprintf("users input %d", i), perr, serr)
			if !reflect.DeepEqual(pu, su) {
				t.Fatalf("input %d (lenient=%v): users differ:\n pipelined:  %+v\n sequential: %+v", i, lenient, pu, su)
			}
			if !reflect.DeepEqual(prep, srep) {
				t.Fatalf("input %d (lenient=%v): reports differ:\n pipelined:  %+v\n sequential: %+v", i, lenient, prep, srep)
			}
			ps, psrep, perr := ReadSnapshotWith(strings.NewReader(in), idx, opts)
			ss, ssrep, serr := ReadSnapshotWith(strings.NewReader(in), idx, seqOpts(opts))
			sameErr(t, fmt.Sprintf("snapshot input %d", i), perr, serr)
			if !reflect.DeepEqual(ps, ss) || !reflect.DeepEqual(psrep, ssrep) {
				t.Fatalf("input %d (lenient=%v): snapshots differ", i, lenient)
			}
		}
	}
}

func TestSnapshotSeriesPipelinedMatchesSequential(t *testing.T) {
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

	check := func(opts ReadOptions) ([]*Snapshot, []*ParseReport, error) {
		t.Helper()
		pg, pr, perr := LoadSnapshotSeriesWith(dir, idx, opts)
		sg, sr, serr := LoadSnapshotSeriesWith(dir, idx, seqOpts(opts))
		sameErr(t, "LoadSnapshotSeriesWith", perr, serr)
		if !reflect.DeepEqual(pg, sg) {
			t.Fatal("series snapshots differ between pipelined and sequential")
		}
		if !reflect.DeepEqual(pr, sr) {
			t.Fatalf("series reports differ:\n pipelined:  %+v\n sequential: %+v", pr, sr)
		}
		return pg, pr, perr
	}
	got, reps, err := check(ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || len(reps) != 5 {
		t.Fatalf("loaded %d snapshots, %d reports, want 5/5", len(got), len(reps))
	}
	for i, s := range got {
		if !reflect.DeepEqual(s, snaps[i]) {
			t.Fatalf("snapshot %d mangled in round trip", i)
		}
	}
	if reps[0].File == SnapshotFile || !strings.HasPrefix(reps[0].File, "snapshot-") {
		t.Fatalf("series report named %q, want the base file name", reps[0].File)
	}

	// Truncate the third file: lenient mode salvages a prefix and
	// flags that report Truncated — the closeFn error is no longer
	// swallowed — while strict mode refuses the series on both paths.
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
	if _, err := LoadSnapshotSeries(dir, idx); err == nil {
		t.Fatal("strict series load accepted truncated gzip")
	}
	if _, _, err := check(ReadOptions{}); err == nil {
		t.Fatal("strict series load accepted truncated gzip")
	}
	got, reps, err = check(ReadOptions{Lenient: true})
	if err != nil {
		t.Fatalf("lenient series load failed: %v", err)
	}
	if len(got) != 5 {
		t.Fatalf("lenient series load kept %d snapshots, want 5", len(got))
	}
	truncated := 0
	for _, r := range reps {
		if r.Truncated {
			truncated++
		}
	}
	if truncated != 1 {
		t.Fatalf("%d reports flagged Truncated, want exactly 1", truncated)
	}
}

func TestLoadSnapshotSeriesOrdersByTaken(t *testing.T) {
	// File names deliberately disagree with capture times: the result
	// must be ordered by Snapshot.Taken, the contract, on both paths.
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
	idx := NameIndex(users)
	for _, opts := range []ReadOptions{{}, {Sequential: true}} {
		got, _, err := LoadSnapshotSeriesWith(dir, idx, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0].Taken != earlier.Taken || got[1].Taken != later.Taken {
			t.Fatalf("series not ordered by Taken (sequential=%v): %d, %d",
				opts.Sequential, got[0].Taken, got[1].Taken)
		}
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
		{UsersFile, func(w *bytes.Buffer) error { return WriteUsers(w, d.Users) }},
		{JobsFile, func(w *bytes.Buffer) error { return WriteJobs(w, d.Users, d.Jobs) }},
		{AccessesFile, func(w *bytes.Buffer) error { return WriteAccesses(w, d.Users, d.Accesses) }},
		{PubsFile, func(w *bytes.Buffer) error { return WritePublications(w, d.Users, d.Publications) }},
		{LoginsFile, func(w *bytes.Buffer) error { return WriteLogins(w, d.Users, d.Logins) }},
		{TransfersFile, func(w *bytes.Buffer) error { return WriteTransfers(w, d.Users, d.Transfers) }},
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
// win — on both paths, with identical text and identically truncated
// reports — regardless of which error class (MaxErrors cap vs a
// failed close on a cut-short gzip member) hits which file, and a
// fatal error on a later file must not erase an earlier file's
// non-fatal salvage report.
func TestFanOutErrorPriority(t *testing.T) {
	t.Run("MaxErrorsBeforeTruncation", func(t *testing.T) {
		// jobs trips the quarantine cap; accesses (canonically later)
		// is cut short. The cap error wins, the accesses report is
		// dropped exactly where a sequential stop-at-first-error read
		// would have left it.
		dir := t.TempDir()
		if err := WriteDataset(dir, sampleDataset()); err != nil {
			t.Fatal(err)
		}
		rewriteTrace(t, filepath.Join(dir, JobsFile), func(lines []string) []string {
			for i := 0; i < 20; i++ {
				lines = append(lines, fmt.Sprintf("garbage-%d", i))
			}
			return lines
		})
		truncateGzip(t, filepath.Join(dir, AccessesFile))
		_, rep, err := loadBoth(t, dir, ReadOptions{Lenient: true, MaxErrors: 5})
		if err == nil {
			t.Fatal("load survived past MaxErrors")
		}
		if !strings.Contains(err.Error(), JobsFile) || !strings.Contains(err.Error(), "more than 5 malformed lines") {
			t.Fatalf("err = %v, want the jobs quarantine-cap error", err)
		}
		last := rep.Reports[len(rep.Reports)-1]
		if last.File != JobsFile {
			t.Fatalf("reports end at %s, want %s (later files' reports dropped)", last.File, JobsFile)
		}
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
		_, _, err := loadBoth(t, dir, ReadOptions{})
		if err == nil {
			t.Fatal("strict load accepted two damaged files")
		}
		if strings.Contains(err.Error(), AccessesFile) {
			t.Fatalf("err = %v, want the jobs close failure, not the later accesses parse error", err)
		}
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
		rewriteTrace(t, filepath.Join(dir, PubsFile), func(lines []string) []string {
			for i := 0; i < 20; i++ {
				lines = append(lines, fmt.Sprintf("garbage-%d", i))
			}
			return lines
		})
		_, rep, err := loadBoth(t, dir, ReadOptions{Lenient: true, MaxErrors: 5})
		if err == nil {
			t.Fatal("load survived past MaxErrors")
		}
		if !strings.Contains(err.Error(), PubsFile) {
			t.Fatalf("err = %v, want the publications quarantine-cap error", err)
		}
		var accRep *ParseReport
		for _, r := range rep.Reports {
			if r.File == AccessesFile {
				accRep = r
			}
		}
		if accRep == nil || !accRep.Truncated {
			t.Fatalf("accesses salvage report lost or unflagged: %+v", accRep)
		}
	})
}

// TestPipelinedMultiMemberGzip pins quarantine line numbers across
// concatenated gzip members. gzip allows a file to be several complete
// deflate streams back to back (the standard output of `cat a.gz b.gz`
// or a rotated-and-joined log); Go's gzip.Reader splices them into one
// logical stream by default. Line numbers in ParseReports must be
// absolute positions in that logical stream — an assembler or scanner
// that restarted its count at a member boundary would report
// relative-to-member numbers, and nothing before this test would have
// caught it because every other fixture is a single member.
func TestPipelinedMultiMemberGzip(t *testing.T) {
	const perMember = 8000 // ~400KiB decompressed per member, spans pipeline blocks
	build := func(t *testing.T, members []map[int]string, truncateLast bool) (string, []int, int) {
		t.Helper()
		dir := t.TempDir()
		if err := WriteDataset(dir, sampleDataset()); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		line := 0
		var wantBad []int
		for mi, badAt := range members {
			start := buf.Len()
			gz := gzip.NewWriter(&buf)
			for i := 0; i < perMember; i++ {
				line++
				if junk, ok := badAt[i]; ok {
					fmt.Fprintf(gz, "%s\n", junk)
					wantBad = append(wantBad, line)
				} else {
					fmt.Fprintf(gz, "%d\tu000\t0\t5\t/lustre/atlas/u000/mm%06d.dat\n", line, line)
				}
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
		return dir, wantBad, line
	}

	t.Run("absolute line numbers", func(t *testing.T) {
		// Bad lines at a member's first row, its last row, and mid-member,
		// all in members ≥ 2 so every expected number exceeds perMember —
		// a per-member reset would be off by a full member's line count.
		dir, wantBad, total := build(t, []map[int]string{
			{},
			{0: "garbage-first-of-member-2", 100: "short", perMember - 1: "garbage-last-of-member-2"},
			{123: "x\tu000\t0\t5\t/p"},
		}, false)
		d, rep, err := loadBoth(t, dir, ReadOptions{Lenient: true})
		if err != nil {
			t.Fatal(err)
		}
		var accRep *ParseReport
		for _, r := range rep.Reports {
			if r.File == AccessesFile {
				accRep = r
			}
		}
		if accRep == nil {
			t.Fatal("no accesses report")
		}
		if accRep.Lines != total {
			t.Fatalf("Lines = %d, want %d across all members", accRep.Lines, total)
		}
		if len(accRep.Errors) != len(wantBad) {
			t.Fatalf("quarantined %d lines, want %d: %+v", len(accRep.Errors), len(wantBad), accRep.Errors)
		}
		for i, e := range accRep.Errors {
			if e.Line != wantBad[i] {
				t.Errorf("quarantine %d at line %d, want absolute line %d (member-relative reset?)", i, e.Line, wantBad[i])
			}
		}
		if want := total - len(wantBad); len(d.Accesses) != want {
			t.Fatalf("salvaged %d accesses, want %d", len(d.Accesses), want)
		}
		// Strict mode must abort with the same absolute position: the
		// first bad line is the first row of member 2.
		_, _, err = loadBoth(t, dir, ReadOptions{})
		if err == nil {
			t.Fatal("strict load accepted multi-member damage")
		}
		if want := fmt.Sprintf("line %d:", perMember+1); !strings.Contains(err.Error(), want) {
			t.Fatalf("strict err = %v, want it positioned at %q", err, want)
		}
	})

	t.Run("truncated final member", func(t *testing.T) {
		// A cut-short last member must not disturb the absolute numbers
		// of quarantines in earlier members, and the salvage must keep
		// every full line that made it through the inflate.
		dir, wantBad, _ := build(t, []map[int]string{
			{},
			{4321: "mid-member-2-garbage"},
			{},
		}, true)
		d, rep, err := loadBoth(t, dir, ReadOptions{Lenient: true})
		if err != nil {
			t.Fatal(err)
		}
		var accRep *ParseReport
		for _, r := range rep.Reports {
			if r.File == AccessesFile {
				accRep = r
			}
		}
		if accRep == nil || !accRep.Truncated {
			t.Fatalf("truncated final member not reported: %+v", accRep)
		}
		// Exactly the member-2 quarantine at its absolute line, plus at
		// most one extra: the inflate's final partial line at the cut
		// point, which the salvage quarantines as malformed before
		// flagging truncation. That fragment must sit inside the
		// truncated member — an earlier number would mean the count
		// reset at a member boundary.
		if len(accRep.Errors) < 1 || accRep.Errors[0].Line != wantBad[0] {
			t.Fatalf("quarantines = %+v, want the first at absolute line %d", accRep.Errors, wantBad[0])
		}
		if len(accRep.Errors) > 2 {
			t.Fatalf("quarantines = %+v, want at most the member-2 line and the cut fragment", accRep.Errors)
		}
		if len(accRep.Errors) == 2 && accRep.Errors[1].Line <= perMember*2 {
			t.Fatalf("cut-fragment quarantine at line %d, inside a fully-salvaged member", accRep.Errors[1].Line)
		}
		if len(d.Accesses) < perMember*2-1 || len(d.Accesses) >= perMember*3 {
			t.Fatalf("salvaged %d accesses, want the two full members plus a strict prefix of the third", len(d.Accesses))
		}
	})
}
