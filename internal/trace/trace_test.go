package trace

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"activedr/internal/timeutil"
)

func sampleDataset() *Dataset {
	t0 := timeutil.Date(2016, time.January, 1)
	users := []User{
		{ID: 0, Name: "u000", Created: t0, Archetype: "power"},
		{ID: 1, Name: "u001", Created: t0, Archetype: "dormant"},
		{ID: 2, Name: "u002", Created: t0},
	}
	return &Dataset{
		Users: users,
		Jobs: []Job{
			{User: 0, Submit: t0.Add(timeutil.Days(1)), Duration: 2 * timeutil.Hour, Cores: 32},
			{User: 2, Submit: t0.Add(timeutil.Days(3)), Duration: 10 * timeutil.Hour, Cores: 128},
		},
		Accesses: []Access{
			{TS: t0.Add(timeutil.Days(1)), User: 0, Create: true, Size: 4096, Path: "/lustre/atlas/u000/proj0/out.h5"},
			{TS: t0.Add(timeutil.Days(2)), User: 0, Create: false, Size: 4096, Path: "/lustre/atlas/u000/proj0/out.h5"},
		},
		Publications: []Publication{
			{TS: t0.Add(timeutil.Days(40)), Citations: 9, Authors: []UserID{0, 2}},
		},
		Snapshot: Snapshot{
			Taken: t0,
			Entries: []SnapshotEntry{
				{Path: "/lustre/atlas/u000/proj0/in.dat", User: 0, Size: 1 << 20, Stripes: 4, ATime: t0.Add(-timeutil.Days(10))},
				{Path: "/lustre/atlas/u001/old.dat", User: 1, Size: 1 << 30, Stripes: 1, ATime: t0.Add(-timeutil.Days(300))},
			},
		},
	}
}

func TestCoreHours(t *testing.T) {
	j := Job{Cores: 32, Duration: 2 * timeutil.Hour}
	if got := j.CoreHours(); got != 64 {
		t.Fatalf("CoreHours = %v, want 64", got)
	}
}

func TestAuthorImpactEq8(t *testing.T) {
	p := Publication{Citations: 9, Authors: []UserID{5, 7, 9}}
	// First author, c=9, n=3, i=0 (1-based 1): (9+1)*(3-1+1) = 30.
	if got := p.AuthorImpact(5); got != 30 {
		t.Errorf("first author impact = %v, want 30", got)
	}
	if got := p.AuthorImpact(7); got != 20 {
		t.Errorf("second author impact = %v, want 20", got)
	}
	if got := p.AuthorImpact(9); got != 10 {
		t.Errorf("last author impact = %v, want 10", got)
	}
	if got := p.AuthorImpact(42); got != 0 {
		t.Errorf("non-author impact = %v, want 0", got)
	}
}

func TestSnapshotTotalBytes(t *testing.T) {
	d := sampleDataset()
	want := int64(1<<20 + 1<<30)
	if got := d.Snapshot.TotalBytes(); got != want {
		t.Fatalf("TotalBytes = %d, want %d", got, want)
	}
}

func TestValidateCatchesBadRecords(t *testing.T) {
	good := sampleDataset()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Dataset)
	}{
		{"sparse user IDs", func(d *Dataset) { d.Users[1].ID = 7 }},
		{"job unknown user", func(d *Dataset) { d.Jobs[0].User = 99 }},
		{"access unknown user", func(d *Dataset) { d.Accesses[0].User = -2 }},
		{"access out of order", func(d *Dataset) { d.Accesses[1].TS = d.Accesses[0].TS - 1 }},
		{"pub without authors", func(d *Dataset) { d.Publications[0].Authors = nil }},
		{"pub unknown author", func(d *Dataset) { d.Publications[0].Authors = []UserID{77} }},
		{"snapshot unknown user", func(d *Dataset) { d.Snapshot.Entries[0].User = 50 }},
		{"snapshot negative size", func(d *Dataset) { d.Snapshot.Entries[0].Size = -1 }},
	}
	for _, c := range cases {
		d := sampleDataset()
		c.mutate(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: Validate did not fail", c.name)
		}
	}
}

func TestSortAccessesAndJobs(t *testing.T) {
	d := sampleDataset()
	d.Accesses[0], d.Accesses[1] = d.Accesses[1], d.Accesses[0]
	d.Jobs[0], d.Jobs[1] = d.Jobs[1], d.Jobs[0]
	d.SortAccesses()
	d.SortJobs()
	if d.Accesses[0].TS > d.Accesses[1].TS {
		t.Error("SortAccesses did not sort")
	}
	if d.Jobs[0].Submit > d.Jobs[1].Submit {
		t.Error("SortJobs did not sort")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("sorted dataset invalid: %v", err)
	}
}

func TestUserRoundTrip(t *testing.T) {
	d := sampleDataset()
	var buf bytes.Buffer
	if err := writeUsers(&buf, d.Users); err != nil {
		t.Fatal(err)
	}
	got, _, err := readRows(&buf, nil, ReadOptions{}, userSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d.Users) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, d.Users)
	}
}

func TestJobRoundTrip(t *testing.T) {
	d := sampleDataset()
	var buf bytes.Buffer
	if err := writeJobs(&buf, d.Users, d.Jobs); err != nil {
		t.Fatal(err)
	}
	got, _, err := readRows(&buf, NameIndex(d.Users), ReadOptions{}, jobSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d.Jobs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, d.Jobs)
	}
}

func TestAccessRoundTrip(t *testing.T) {
	d := sampleDataset()
	var buf bytes.Buffer
	if err := writeAccesses(&buf, d.Users, d.Accesses); err != nil {
		t.Fatal(err)
	}
	got, _, err := readRows(&buf, NameIndex(d.Users), ReadOptions{}, accessSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d.Accesses) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, d.Accesses)
	}
}

func TestPublicationRoundTrip(t *testing.T) {
	d := sampleDataset()
	var buf bytes.Buffer
	if err := writePublications(&buf, d.Users, d.Publications); err != nil {
		t.Fatal(err)
	}
	got, _, err := readRows(&buf, NameIndex(d.Users), ReadOptions{}, pubSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d.Publications) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, d.Publications)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	d := sampleDataset()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, d.Users, &d.Snapshot); err != nil {
		t.Fatal(err)
	}
	got, _, err := readSnapshot(&buf, NameIndex(d.Users), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, d.Snapshot) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, d.Snapshot)
	}
}

func TestDatasetDirRoundTrip(t *testing.T) {
	d := sampleDataset()
	dir := t.TempDir()
	if err := WriteDataset(dir, d); err != nil {
		t.Fatal(err)
	}
	// Jobs/accesses/snapshot must actually be gzipped.
	raw, err := os.ReadFile(filepath.Join(dir, JobsFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Error("jobs file is not gzipped")
	}
	got, err := LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("dataset round trip mismatch")
	}
}

func TestReadersRejectMalformedLines(t *testing.T) {
	idx := map[string]UserID{"u000": 0}
	cases := []struct {
		name string
		fn   func(string) error
	}{
		{"users bad ts", func(s string) error {
			_, _, err := readRows(strings.NewReader(s), nil, ReadOptions{}, userSpec)
			return err
		}},
		{"jobs", func(s string) error {
			_, _, err := readRows(strings.NewReader(s), idx, ReadOptions{}, jobSpec)
			return err
		}},
		{"accesses", func(s string) error {
			_, _, err := readRows(strings.NewReader(s), idx, ReadOptions{}, accessSpec)
			return err
		}},
		{"pubs", func(s string) error {
			_, _, err := readRows(strings.NewReader(s), idx, ReadOptions{}, pubSpec)
			return err
		}},
		{"snapshot", func(s string) error { _, _, err := readSnapshot(strings.NewReader(s), idx, ReadOptions{}); return err }},
	}
	bad := map[string][]string{
		"users bad ts": {"u000\tnotanumber", "solo"},
		"jobs":         {"u000\t1\t2", "nosuch\t1\t2\t3", "u000\tx\t2\t3"},
		"accesses":     {"1\tu000\t0\t5", "1\tnosuch\t0\t5\t/p", "x\tu000\t0\t5\t/p", "1\tu000\t0\t5\t"},
		"pubs":         {"1\t2", "1\tx\tu000", "1\t2\tnosuch"},
		"snapshot":     {"u000\t1\t2\t3", "nosuch\t1\t2\t3\t/p", "u000\tx\t2\t3\t/p", "#taken\tzzz"},
	}
	for _, c := range cases {
		for _, line := range bad[c.name] {
			if err := c.fn(line + "\n"); err == nil {
				t.Errorf("%s: line %q accepted", c.name, line)
			}
		}
	}
}

func TestReadersSkipCommentsAndBlanks(t *testing.T) {
	in := "# comment\n\nu000\t100\tpower\n"
	users, _, err := readRows(strings.NewReader(in), nil, ReadOptions{}, userSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 1 || users[0].Name != "u000" {
		t.Fatalf("got %+v", users)
	}
}

func TestTruncatedGzipFails(t *testing.T) {
	dir := t.TempDir()
	d := sampleDataset()
	if err := WriteDataset(dir, d); err != nil {
		t.Fatal(err)
	}
	// Corrupt the accesses file: valid gzip header, truncated body.
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write([]byte(strings.Repeat("1\tu000\t0\t5\t/lustre/atlas/u000/f\n", 100)))
	gz.Close()
	trunc := buf.Bytes()[:buf.Len()/2]
	if err := os.WriteFile(filepath.Join(dir, AccessesFile), trunc, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDataset(dir); err == nil {
		t.Fatal("LoadDataset accepted truncated gzip")
	}
}

func TestLoadDatasetMissingFile(t *testing.T) {
	if _, err := LoadDataset(t.TempDir()); err == nil {
		t.Fatal("LoadDataset of empty dir succeeded")
	}
}

func TestUserByName(t *testing.T) {
	d := sampleDataset()
	if d.UserByName("u002") != 2 {
		t.Error("UserByName failed for existing user")
	}
	if d.UserByName("ghost") != NoUser {
		t.Error("UserByName should return NoUser for unknown")
	}
}
