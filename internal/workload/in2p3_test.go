package workload

import (
	"compress/gzip"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"activedr/internal/sim"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

const sampleCSV = "testdata/in2p3_sample.csv"

func loadSample(t *testing.T) (*trace.Dataset, *trace.ParseReport) {
	t.Helper()
	ds, rep, err := LoadIN2P3(sampleCSV, IN2P3Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return ds, rep
}

func TestLoadIN2P3Sample(t *testing.T) {
	ds, rep := loadSample(t)
	if len(rep.Errors) != 0 || rep.Truncated {
		t.Fatalf("clean sample reported dirty: %+v", rep)
	}
	if len(ds.Users) != 12 {
		t.Fatalf("users = %d, want 12", len(ds.Users))
	}
	if len(ds.Jobs) != rep.Lines-1 { // every data row is one job; line 1 is the header
		t.Fatalf("jobs = %d, want %d (one per data row)", len(ds.Jobs), rep.Lines-1)
	}
	if len(ds.Accesses) == 0 || len(ds.Snapshot.Entries) == 0 || len(ds.Logins) == 0 {
		t.Fatalf("synthesis left gaps: %d accesses, %d snapshot entries, %d logins",
			len(ds.Accesses), len(ds.Snapshot.Entries), len(ds.Logins))
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	// The snapshot is the namespace as the trace window opens: taken at
	// the UTC midnight before the first event, every entry's atime at
	// or before it, every access after it.
	for i := range ds.Snapshot.Entries {
		if ds.Snapshot.Entries[i].ATime.After(ds.Snapshot.Taken) {
			t.Fatalf("snapshot entry %q accessed after the capture", ds.Snapshot.Entries[i].Path)
		}
	}
	if ds.Accesses[0].TS.Before(ds.Snapshot.Taken) {
		t.Fatalf("first access %d predates the snapshot %d", ds.Accesses[0].TS, ds.Snapshot.Taken)
	}

	// Same input, same options: bit-identical output.
	again, _, err := LoadIN2P3(sampleCSV, IN2P3Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds, again) {
		t.Fatal("adapter output is not deterministic")
	}
	// A different seed keeps the real records and reshapes only the
	// synthesized I/O.
	other, _, err := LoadIN2P3(sampleCSV, IN2P3Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds.Jobs, other.Jobs) {
		t.Fatal("seed changed the adapted job log")
	}
	if reflect.DeepEqual(ds.Accesses, other.Accesses) {
		t.Fatal("seed did not vary the synthesized accesses")
	}
}

func TestLoadIN2P3Quarantine(t *testing.T) {
	const path = "testdata/in2p3_malformed.csv"
	// Strict mode aborts on the first bad record with its line number.
	_, _, err := LoadIN2P3(path, IN2P3Options{})
	if err == nil {
		t.Fatal("strict load accepted malformed records")
	}
	if !strings.Contains(err.Error(), "line 3:") {
		t.Fatalf("strict err = %v, want it positioned at line 3", err)
	}

	ds, rep, err := LoadIN2P3(path, IN2P3Options{Lenient: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	wantLines := []int{3, 4, 5, 6, 8, 9}
	if len(rep.Errors) != len(wantLines) {
		t.Fatalf("quarantined %d records, want %d: %+v", len(rep.Errors), len(wantLines), rep.Errors)
	}
	for i, e := range rep.Errors {
		if e.Line != wantLines[i] {
			t.Errorf("quarantine %d at line %d, want %d (%s)", i, e.Line, wantLines[i], e.Reason)
		}
	}
	if len(ds.Jobs) != 4 || len(ds.Users) != 3 {
		t.Fatalf("salvaged %d jobs / %d users, want 4 / 3", len(ds.Jobs), len(ds.Users))
	}

	// The two DST rows are valid records whose local wall clocks must
	// normalize exactly the way the timeutil parse edge pins: the
	// spring-gap 02:30 shifts forward to 01:30Z, the ambiguous
	// fall-back 02:30 maps to the post-transition 01:30Z.
	var springOK, fallOK bool
	for _, j := range ds.Jobs {
		switch int64(j.Submit) {
		case 1711848600:
			springOK = true
		case 1729992600:
			fallOK = true
		}
	}
	if !springOK || !fallOK {
		t.Fatalf("DST rows mis-normalized (spring=%v fall=%v): %+v", springOK, fallOK, ds.Jobs)
	}

	// A one-record cap aborts even in lenient mode, naming the file.
	_, _, err = LoadIN2P3(path, IN2P3Options{Lenient: true, MaxErrors: 1})
	if err == nil || !strings.Contains(err.Error(), "more than 1 malformed") {
		t.Fatalf("MaxErrors cap not enforced: %v", err)
	}
}

func TestLoadIN2P3HeaderErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name, content, wantErr string
	}{
		{"empty.csv", "", "no header"},
		{"nouser.csv", "a,b,c\n1,2,3\n", "no user column"},
		{"nocores.csv", "user,end_time\nu1,2024-01-01 00:00:00\n", "no cores column"},
		{"notime.csv", "user,cores\nu1,4\n", "no end-time column"},
		{"norecords.csv", "user,cores,submit_time,end_time\n", "no usable records"},
	}
	for _, tc := range cases {
		if _, _, err := LoadIN2P3(write(tc.name, tc.content), IN2P3Options{Lenient: true}); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
		}
	}
	if _, _, err := LoadIN2P3(filepath.Join(dir, "absent.csv"), IN2P3Options{}); err == nil {
		t.Error("missing file accepted")
	}
	if _, _, err := LoadIN2P3(sampleCSV, IN2P3Options{Zone: "No/Such_Zone"}); err == nil {
		t.Error("unknown zone accepted")
	}
}

// TestLoadIN2P3TSVAndGzip pins the format sniffing: the same records
// as TSV and as gzipped CSV adapt to the identical dataset.
func TestLoadIN2P3TSVAndGzip(t *testing.T) {
	raw, err := os.ReadFile(sampleCSV)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tsv := filepath.Join(dir, "sample.tsv")
	if err := os.WriteFile(tsv, []byte(strings.ReplaceAll(string(raw), ",", "\t")), 0o644); err != nil {
		t.Fatal(err)
	}
	want, _ := loadSample(t)
	dsTSV, _, err := LoadIN2P3(tsv, IN2P3Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, dsTSV) {
		t.Fatal("TSV adaptation differs from CSV")
	}

	gz := filepath.Join(dir, "sample.csv.gz")
	if err := writeGzip(gz, raw); err != nil {
		t.Fatal(err)
	}
	dsGz, _, err := LoadIN2P3(gz, IN2P3Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, dsGz) {
		t.Fatal("gzipped adaptation differs from plain")
	}
}

// TestLoadIN2P3LenientLongLine: lenient mode salvages only an input
// cut short; a line past the trace readers' line cap fails the read,
// as it does for every trace file, instead of passing as a truncation
// that keeps the records before it.
func TestLoadIN2P3LenientLongLine(t *testing.T) {
	raw, err := os.ReadFile(sampleCSV)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	long := strings.Join(lines[:4], "") + strings.Repeat("x", 5<<20) + "\n" + strings.Join(lines[4:], "")
	path := filepath.Join(t.TempDir(), "long.csv")
	if err := os.WriteFile(path, []byte(long), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, rep, err := LoadIN2P3(path, IN2P3Options{Lenient: true})
	if err == nil || !strings.Contains(err.Error(), "long.csv line 5: bufio.Scanner: token too long") {
		t.Fatalf("err = %v (report %+v, dataset %v), want the line-5 token-too-long error", err, rep, ds != nil)
	}
}

// TestLoadIN2P3TruncatedGzip: a gzipped export cut short loads in
// lenient mode with the records before the cut and Truncated set (the
// cut row's head is quarantined), and fails a strict load.
func TestLoadIN2P3TruncatedGzip(t *testing.T) {
	raw, err := os.ReadFile(sampleCSV)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cut.csv.gz")
	if err := writeGzip(path, raw); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadIN2P3(path, IN2P3Options{}); err == nil {
		t.Fatal("strict load accepted a cut input")
	}
	ds, rep, err := LoadIN2P3(path, IN2P3Options{Lenient: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	full, _ := loadSample(t)
	if !rep.Truncated || len(ds.Jobs) == 0 || len(ds.Jobs) >= len(full.Jobs) {
		t.Fatalf("salvaged %d of %d jobs, report %+v", len(ds.Jobs), len(full.Jobs), rep)
	}
}

// in2p3Golden is the round-trip fingerprint: adapter aggregates plus
// the per-policy replay outcome on the sample. Refresh with
// go test ./internal/workload -run TestIN2P3GoldenRoundTrip -update-golden
type in2p3Golden struct {
	Users           int   `json:"users"`
	Jobs            int   `json:"jobs"`
	Accesses        int   `json:"accesses"`
	Creates         int   `json:"creates"`
	Logins          int   `json:"logins"`
	SnapshotEntries int   `json:"snapshot_entries"`
	SnapshotBytes   int64 `json:"snapshot_bytes"`
	Taken           int64 `json:"taken"`
	FLTMisses       int64 `json:"flt_misses"`
	FLTPurged       int64 `json:"flt_purged_bytes"`
	ActiveDRMisses  int64 `json:"activedr_misses"`
	ActiveDRPurged  int64 `json:"activedr_purged_bytes"`
}

// TestIN2P3GoldenRoundTrip drives raw records → adapted trace → TSV
// round-trip → policy replay, and pins the whole chain against a
// golden fingerprint: any change to the adapter's synthesis, the
// trace writers, or the replay shows up as a diff here.
func TestIN2P3GoldenRoundTrip(t *testing.T) {
	ds, _ := loadSample(t)

	// TSV round-trip: the adapted dataset must survive WriteDataset /
	// LoadDataset bit-for-bit (modulo nothing — the schemas cover every
	// field the adapter fills).
	dir := t.TempDir()
	if err := trace.WriteDataset(dir, ds); err != nil {
		t.Fatal(err)
	}
	back, err := trace.LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds, back) {
		t.Fatal("adapted dataset does not survive the TSV round trip")
	}

	em, err := sim.New(back, sim.Config{
		Lifetime:          timeutil.Days(90),
		TriggerInterval:   timeutil.Days(7),
		TargetUtilization: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	flt, err := em.Run(em.NewFLT())
	if err != nil {
		t.Fatal(err)
	}
	adrPolicy, err := em.NewActiveDR()
	if err != nil {
		t.Fatal(err)
	}
	adr, err := em.Run(adrPolicy)
	if err != nil {
		t.Fatal(err)
	}
	purged := func(r *sim.Result) int64 {
		var b int64
		for _, rep := range r.Reports {
			b += rep.PurgedBytes
		}
		return b
	}

	creates := 0
	for i := range ds.Accesses {
		if ds.Accesses[i].Create {
			creates++
		}
	}
	got := in2p3Golden{
		Users: len(ds.Users), Jobs: len(ds.Jobs), Accesses: len(ds.Accesses),
		Creates: creates, Logins: len(ds.Logins),
		SnapshotEntries: len(ds.Snapshot.Entries), SnapshotBytes: ds.Snapshot.TotalBytes(),
		Taken:     int64(ds.Snapshot.Taken),
		FLTMisses: flt.TotalMisses, FLTPurged: purged(flt),
		ActiveDRMisses: adr.TotalMisses, ActiveDRPurged: purged(adr),
	}

	goldenPath := "testdata/in2p3_golden.json"
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want in2p3Golden
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round-trip fingerprint drifted:\n got  %+v\n want %+v\n(refresh with -update-golden if the change is intentional)", got, want)
	}
}

// writeGzip writes blob gzipped to path.
func writeGzip(path string, blob []byte) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	gz := gzip.NewWriter(f)
	if _, err := gz.Write(blob); err != nil {
		return err
	}
	return gz.Close()
}
