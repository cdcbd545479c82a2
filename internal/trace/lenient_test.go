package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestCloseAllRunsEveryLayer(t *testing.T) {
	var order []string
	mk := func(name string, err error) func() error {
		return func() error {
			order = append(order, name)
			return err
		}
	}
	errInner := errors.New("inner close failed")
	errOuter := errors.New("outer close failed")

	// All layers run even when the first fails, and every failure is
	// reachable via errors.Is on the joined result.
	err := closeAll(mk("gz", errInner), mk("flush", nil), mk("file", errOuter))()
	if want := []string{"gz", "flush", "file"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("close order = %v, want %v", order, want)
	}
	if !errors.Is(err, errInner) || !errors.Is(err, errOuter) {
		t.Fatalf("joined error %v does not carry both layer errors", err)
	}

	order = nil
	if err := closeAll(mk("a", nil), mk("b", nil))(); err != nil {
		t.Fatalf("all-clean closeAll returned %v", err)
	}
	if len(order) != 2 {
		t.Fatalf("clean close ran %d layers, want 2", len(order))
	}
}

func TestOpenWriterCloserFlushes(t *testing.T) {
	for _, name := range []string{"plain.tsv", "packed.tsv.gz"} {
		path := filepath.Join(t.TempDir(), name)
		w, closeFn, err := openWriter(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write([]byte("hello\n")); err != nil {
			t.Fatal(err)
		}
		if err := closeFn(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		r, closeRd, err := openReader(path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(r); err != nil {
			t.Fatal(err)
		}
		if err := closeRd(); err != nil {
			t.Fatalf("%s: reader close: %v", name, err)
		}
		if buf.String() != "hello\n" {
			t.Fatalf("%s: read back %q", name, buf.String())
		}
	}
}

func TestLenientQuarantinesMalformedLines(t *testing.T) {
	idx := map[string]UserID{"u000": 0}
	lenient := ReadOptions{Lenient: true}

	t.Run("users", func(t *testing.T) {
		in := "u000\t100\tpower\nsolo\nu001\tnotanumber\nu002\t300\n"
		users, rep, err := readRows(strings.NewReader(in), nil, lenient, userSpec)
		if err != nil {
			t.Fatal(err)
		}
		if len(users) != 2 || users[0].Name != "u000" || users[1].Name != "u002" {
			t.Fatalf("salvaged users = %+v", users)
		}
		// Quarantined lines must not consume IDs: survivors stay dense.
		if users[0].ID != 0 || users[1].ID != 1 {
			t.Fatalf("IDs not dense after quarantine: %+v", users)
		}
		if len(rep.Errors) != 2 {
			t.Fatalf("quarantined %d lines, want 2: %+v", len(rep.Errors), rep.Errors)
		}
		if rep.Errors[0].Line != 2 || rep.Errors[1].Line != 3 {
			t.Fatalf("wrong quarantine lines: %+v", rep.Errors)
		}
		if rep.Errors[0].File != UsersFile || rep.Errors[0].Reason == "" {
			t.Fatalf("quarantine entry incomplete: %+v", rep.Errors[0])
		}
		if rep.Lines != 4 || rep.Clean() {
			t.Fatalf("report = %+v", rep)
		}
		// The same input aborts a strict read.
		if _, _, err := readRows(strings.NewReader(in), nil, ReadOptions{}, userSpec); err == nil {
			t.Fatal("strict read accepted malformed input")
		}
	})

	t.Run("jobs", func(t *testing.T) {
		in := "u000\t1\t2\t3\nnosuch\t1\t2\t3\nu000\tx\t2\t3\nu000\t9\t9\t9\n"
		jobs, rep, err := readRows(strings.NewReader(in), idx, lenient, jobSpec)
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) != 2 || len(rep.Errors) != 2 {
			t.Fatalf("jobs=%d errors=%d, want 2/2", len(jobs), len(rep.Errors))
		}
		if !strings.Contains(rep.Errors[0].Reason, "unknown user") {
			t.Fatalf("reason = %q", rep.Errors[0].Reason)
		}
	})

	t.Run("accesses", func(t *testing.T) {
		in := "1\tu000\t0\t5\t/p\n1\tu000\t0\t5\t\n2\tu000\t1\t7\t/q\n"
		accs, rep, err := readRows(strings.NewReader(in), idx, lenient, accessSpec)
		if err != nil {
			t.Fatal(err)
		}
		if len(accs) != 2 || len(rep.Errors) != 1 {
			t.Fatalf("accesses=%d errors=%d, want 2/1", len(accs), len(rep.Errors))
		}
	})

	t.Run("publications", func(t *testing.T) {
		in := "1\t2\tu000\n1\t2\tnosuch\n3\t4\tu000\n"
		pubs, rep, err := readRows(strings.NewReader(in), idx, lenient, pubSpec)
		if err != nil {
			t.Fatal(err)
		}
		if len(pubs) != 2 || len(rep.Errors) != 1 {
			t.Fatalf("pubs=%d errors=%d, want 2/1", len(pubs), len(rep.Errors))
		}
	})

	t.Run("snapshot", func(t *testing.T) {
		in := "#taken\t99\nu000\t1\t2\t3\t/p\nu000\tx\t2\t3\t/q\n#taken\tzzz\n"
		s, rep, err := readSnapshot(strings.NewReader(in), idx, lenient)
		if err != nil {
			t.Fatal(err)
		}
		if int64(s.Taken) != 99 || len(s.Entries) != 1 {
			t.Fatalf("snapshot = %+v", s)
		}
		if len(rep.Errors) != 2 {
			t.Fatalf("errors = %+v", rep.Errors)
		}
	})

	t.Run("logins", func(t *testing.T) {
		in := "1\tu000\nbroken\n2\tu000\n"
		logins, rep, err := readRows(strings.NewReader(in), idx, lenient, loginSpec)
		if err != nil {
			t.Fatal(err)
		}
		if len(logins) != 2 || len(rep.Errors) != 1 {
			t.Fatalf("logins=%d errors=%d, want 2/1", len(logins), len(rep.Errors))
		}
	})

	t.Run("transfers", func(t *testing.T) {
		in := "1\tu000\tin\t5\n1\tu000\tsideways\t5\n2\tu000\tout\t7\n"
		xs, rep, err := readRows(strings.NewReader(in), idx, lenient, transferSpec)
		if err != nil {
			t.Fatal(err)
		}
		if len(xs) != 2 || len(rep.Errors) != 1 {
			t.Fatalf("transfers=%d errors=%d, want 2/1", len(xs), len(rep.Errors))
		}
		if !strings.Contains(rep.Errors[0].Reason, "bad direction") {
			t.Fatalf("reason = %q", rep.Errors[0].Reason)
		}
	})
}

func TestLenientMaxErrorsAborts(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 10; i++ {
		sb.WriteString("garbage-line\n")
	}
	_, rep, err := readRows(strings.NewReader(sb.String()), nil, ReadOptions{Lenient: true, MaxErrors: 3}, userSpec)
	if err == nil {
		t.Fatal("lenient read survived past MaxErrors")
	}
	if !strings.Contains(err.Error(), "more than 3 malformed lines") {
		t.Fatalf("err = %v", err)
	}
	if len(rep.Errors) != 3 {
		t.Fatalf("quarantined %d, want exactly MaxErrors=3", len(rep.Errors))
	}

	// Exactly at the cap still succeeds.
	users, rep, err := readRows(strings.NewReader("bad\nbad\nbad\nu000\t1\n"),
		nil, ReadOptions{Lenient: true, MaxErrors: 3}, userSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 1 || len(rep.Errors) != 3 {
		t.Fatalf("users=%d errors=%d", len(users), len(rep.Errors))
	}
}

func TestLenientMatchesStrictOnCleanInput(t *testing.T) {
	d := sampleDataset()
	dir := t.TempDir()
	if err := WriteDataset(dir, d); err != nil {
		t.Fatal(err)
	}
	strict, err := LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := LoadDatasetWith(dir, ReadOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean dataset reported dirty: %s", rep.Summary())
	}
	if !reflect.DeepEqual(got, strict) {
		t.Fatal("lenient load of clean dataset differs from strict load")
	}
	if rep.Summary() != "dataset: clean" {
		t.Fatalf("Summary = %q", rep.Summary())
	}
}

func TestLenientSalvagesTruncatedGzip(t *testing.T) {
	dir := t.TempDir()
	d := sampleDataset()
	if err := WriteDataset(dir, d); err != nil {
		t.Fatal(err)
	}
	// Replace the accesses file with a valid gzip stream cut in half:
	// the flate layer reports io.ErrUnexpectedEOF partway through.
	// Varied lines keep the stream incompressible enough that the cut
	// lands mid-data with a real salvageable prefix.
	total := len(truncatedAccesses(t, dir))

	// Strict load still refuses the truncated stream.
	if _, err := LoadDataset(dir); err == nil {
		t.Fatal("strict LoadDataset accepted truncated gzip")
	}

	got, rep, err := LoadDatasetWith(dir, ReadOptions{Lenient: true})
	if err != nil {
		t.Fatalf("lenient load failed: %v", err)
	}
	truncated := false
	for _, r := range rep.Reports {
		truncated = truncated || r.Truncated
	}
	if !truncated {
		t.Fatalf("truncation not reported: %s", rep.Summary())
	}
	if len(got.Accesses) == 0 || len(got.Accesses) >= total {
		t.Fatalf("salvaged %d accesses, want a proper non-empty prefix", len(got.Accesses))
	}
	for i, a := range got.Accesses {
		if a.User != 0 || a.Size != 5 || int64(a.TS) != int64(i) {
			t.Fatalf("salvaged record %d corrupted: %+v", i, a)
		}
	}
	// The other files were intact.
	if !reflect.DeepEqual(got.Users, d.Users) || len(got.Jobs) != len(d.Jobs) {
		t.Fatal("intact files damaged by lenient load")
	}
	if rep.Clean() {
		t.Fatal("dirty dataset reported clean")
	}
	if !strings.Contains(rep.Summary(), "truncated") {
		t.Fatalf("Summary = %q", rep.Summary())
	}
}

func TestLenientUnknownUserCascade(t *testing.T) {
	// A quarantined user row makes that user's job rows unknown; in
	// lenient mode the damage stays contained to those rows.
	dir := t.TempDir()
	d := sampleDataset()
	if err := WriteDataset(dir, d); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, UsersFile))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	// Corrupt the last user's row (u002 authors a publication and a job).
	lines[len(lines)-1] = "u002\tnot-a-timestamp"
	if err := os.WriteFile(filepath.Join(dir, UsersFile),
		[]byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, rep, err := LoadDatasetWith(dir, ReadOptions{Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Users) != 2 {
		t.Fatalf("users = %+v", got.Users)
	}
	if rep.Errors() < 3 { // user row + u002's job + u002's publication
		t.Fatalf("cascade quarantined %d rows: %s", rep.Errors(), rep.Summary())
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("salvaged dataset invalid: %v", err)
	}
}

func TestParseErrorString(t *testing.T) {
	e := ParseError{File: "jobs.tsv.gz", Line: 7, Reason: "want 4 fields, got 2"}
	if got := e.String(); got != "jobs.tsv.gz:7: want 4 fields, got 2" {
		t.Fatalf("String = %q", got)
	}
}

func TestParseReportSummary(t *testing.T) {
	clean := &ParseReport{File: "users.tsv", Lines: 5}
	if !clean.Clean() || !strings.Contains(clean.Summary(), "clean") {
		t.Fatalf("clean report: %q", clean.Summary())
	}
	var nilRep *ParseReport
	if !nilRep.Clean() {
		t.Fatal("nil report must be clean")
	}
	dirty := &ParseReport{File: "users.tsv", Lines: 5,
		Errors: []ParseError{{File: "users.tsv", Line: 2, Reason: "x"}}, Truncated: true}
	s := dirty.Summary()
	if !strings.Contains(s, "1 quarantined") || !strings.Contains(s, "truncated") {
		t.Fatalf("dirty summary: %q", s)
	}
}
