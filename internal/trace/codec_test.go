package trace

import (
	"bytes"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// codecFixture is one record set per trace kind, small enough to pin
// each kind's encoded bytes as a literal.
func codecFixture() *Dataset {
	return &Dataset{
		Users: []User{
			{ID: 0, Name: "u000", Created: 100, Archetype: "power"},
			{ID: 1, Name: "u001", Created: -5},
		},
		Jobs: []Job{
			{User: 1, Submit: 7, Duration: 3600, Cores: 16},
			{User: 0, Submit: 9, Duration: 0, Cores: 1},
		},
		Accesses: []Access{
			{TS: 11, User: 0, Create: true, Size: 4096, Path: "/lustre/atlas/u000/a.dat"},
			{TS: 12, User: 1, Size: 0, Path: "/lustre/atlas/u001/tab\there"},
		},
		Publications: []Publication{
			{TS: 13, Citations: 4, Authors: []UserID{1, 0}},
			{TS: 14, Citations: 0, Authors: []UserID{0}},
		},
		Logins: []Login{{User: 1, TS: 15}, {User: 0, TS: 16}},
		Transfers: []Transfer{
			{User: 0, TS: 17, Dir: TransferIn, Bytes: 1 << 40},
			{User: 1, TS: 18, Dir: TransferOut, Bytes: 0},
		},
		Snapshot: Snapshot{Taken: 19, Entries: []SnapshotEntry{
			{Path: "/lustre/atlas/u000/a.dat", User: 0, Size: 4096, Stripes: 4, ATime: -3},
			{Path: "/lustre/atlas/u001/tab\there", User: 1, Size: 1, Stripes: 1, ATime: 20},
		}},
	}
}

// roundTrip checks one codec-table kind: write must produce want (the
// per-kind writers' bytes before the codec table, pinned as literals),
// and the gzipped file it writes must load back as recs through the
// one load step.
func roundTrip[T any](t *testing.T, spec rowSpec[T], write func(io.Writer) error, want string, byName map[string]UserID, recs []T) {
	t.Helper()
	var b bytes.Buffer
	if err := write(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Errorf("%s: wrote %q, want %q", spec.name, b.String(), want)
	}
	path := filepath.Join(t.TempDir(), "rows.gz")
	if err := writeFile(path, write); err != nil {
		t.Fatal(err)
	}
	got, _, rep, err := loadFile(path, byName, ReadOptions{}, spec)
	if err != nil {
		t.Fatalf("%s: %v", spec.name, err)
	}
	if !reflect.DeepEqual(got, recs) || rep.Lines != len(recs) || !rep.Clean() {
		t.Errorf("%s: loaded %+v (%s), want %+v", spec.name, got, rep.Summary(), recs)
	}
}

// TestCodecTableRoundTrip covers every kind in the codec table.
func TestCodecTableRoundTrip(t *testing.T) {
	d := codecFixture()
	u := d.Users
	idx := NameIndex(u)
	roundTrip(t, userSpec, func(w io.Writer) error { return writeUsers(w, u) },
		"u000\t100\tpower\nu001\t-5\t\n", nil, u)
	roundTrip(t, jobSpec, func(w io.Writer) error { return writeJobs(w, u, d.Jobs) },
		"u001\t7\t3600\t16\nu000\t9\t0\t1\n", idx, d.Jobs)
	roundTrip(t, accessSpec, func(w io.Writer) error { return writeAccesses(w, u, d.Accesses) },
		"11\tu000\t1\t4096\t/lustre/atlas/u000/a.dat\n12\tu001\t0\t0\t/lustre/atlas/u001/tab\there\n", idx, d.Accesses)
	roundTrip(t, pubSpec, func(w io.Writer) error { return writePublications(w, u, d.Publications) },
		"13\t4\tu001,u000\n14\t0\tu000\n", idx, d.Publications)
	roundTrip(t, snapshotSpec, func(w io.Writer) error { return WriteSnapshot(w, u, &d.Snapshot) },
		"#taken\t19\nu000\t4096\t4\t-3\t/lustre/atlas/u000/a.dat\nu001\t1\t1\t20\t/lustre/atlas/u001/tab\there\n", idx, d.Snapshot.Entries)
	roundTrip(t, loginSpec, func(w io.Writer) error { return writeLogins(w, u, d.Logins) },
		"15\tu001\n16\tu000\n", idx, d.Logins)
	roundTrip(t, transferSpec, func(w io.Writer) error { return writeTransfers(w, u, d.Transfers) },
		"17\tu000\tin\t1099511627776\n18\tu001\tout\t0\n", idx, d.Transfers)
	paths := []string{d.Accesses[0].Path, d.Accesses[1].Path}
	roundTrip(t, pathSpec, func(w io.Writer) error { return writeRows(w, nil, paths, pathSpec) },
		"/lustre/atlas/u000/a.dat\n/lustre/atlas/u001/tab\there\n", nil, paths)

	// The file-level forms the checkpoints use: the snapshot keeps its
	// capture time, and a path list refuses a relative path.
	dir := t.TempDir()
	sp := filepath.Join(dir, "fs.tsv.gz")
	if err := WriteSnapshotFile(sp, u, &d.Snapshot); err != nil {
		t.Fatal(err)
	}
	if s, err := ReadSnapshotFile(sp, idx); err != nil || !reflect.DeepEqual(*s, d.Snapshot) {
		t.Fatalf("snapshot file: %+v, %v", s, err)
	}
	pp := filepath.Join(dir, "deleted.gz")
	if err := WritePathsFile(pp, append(paths, "rel/path")); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPathsFile(pp); err == nil || !strings.HasSuffix(err.Error(), `paths line 3: relative path "rel/path"`) {
		t.Fatalf("relative path accepted: %v", err)
	}
}

// TestWriteSnapshotFileAllocs: the writer's 1 MiB buffer and flate
// compressor come from pools, so a one-entry checkpoint sidecar
// allocates kilobytes, not the 2.2 MB a fresh pair costs. The best of
// many calls is measured: a GC may empty the pools, and the race
// detector drops pooled items at random.
func TestWriteSnapshotFileAllocs(t *testing.T) {
	d := codecFixture()
	s := &Snapshot{Taken: 1, Entries: d.Snapshot.Entries[:1]}
	path := filepath.Join(t.TempDir(), "fs.tsv.gz")
	write := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := WriteSnapshotFile(path, d.Users, s); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	write() // warm-up: fills the pools
	best := write()
	for i := 0; i < 20; i++ {
		best = min(best, write())
	}
	if best >= 64<<10 {
		t.Fatalf("WriteSnapshotFile of one entry allocated %d bytes, want < 64 KiB", best)
	}
}

// TestReadSnapshotFileAllocs: the gzip reader's state (its 256 KiB
// input buffer, window and tables) comes from a pool too, so reading a
// one-entry sidecar allocates kilobytes, not the 340 KB a fresh state
// costs. Measured as TestWriteSnapshotFileAllocs is.
func TestReadSnapshotFileAllocs(t *testing.T) {
	d := codecFixture()
	s := &Snapshot{Taken: 1, Entries: d.Snapshot.Entries[:1]}
	path := filepath.Join(t.TempDir(), "fs.tsv.gz")
	if err := WriteSnapshotFile(path, d.Users, s); err != nil {
		t.Fatal(err)
	}
	idx := NameIndex(d.Users)
	read := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ReadSnapshotFile(path, idx); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	read() // warm-up: fills the pools
	best := read()
	for i := 0; i < 20; i++ {
		best = min(best, read())
	}
	if best >= 64<<10 {
		t.Fatalf("ReadSnapshotFile of one entry allocated %d bytes, want < 64 KiB", best)
	}
}
