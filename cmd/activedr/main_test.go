package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"activedr/internal/retention"
	"activedr/internal/sim"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

func TestLoadReserved(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "reserved.txt")
	content := "# campaign data\n/lustre/atlas/u1/keep\n\n  /lustre/atlas/u2/file.dat  \n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := loadReserved(path)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 {
		t.Fatalf("Len = %d, want 2", rs.Len())
	}
	if !rs.Covers("/lustre/atlas/u1/keep/sub/file") {
		t.Error("subtree reservation not loaded")
	}
	if !rs.Covers("/lustre/atlas/u2/file.dat") {
		t.Error("whitespace-trimmed path not loaded")
	}
	if rs.Covers("/lustre/atlas/u3/other") {
		t.Error("phantom reservation")
	}
}

// TestLoadReservedRejectsRelative: a relative entry can never cover
// an absolute file-system path, so it fails the load with its file and
// line instead of silently reserving nothing.
func TestLoadReservedRejectsRelative(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reserved.txt")
	if err := os.WriteFile(path, []byte("# keep\n/lustre/atlas/u1/keep\n\n  scratch/proj  \n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := loadReserved(path)
	want := path + ` line 4: reserved path "scratch/proj" is not absolute`
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestLoadReservedMissingFile(t *testing.T) {
	if _, err := loadReserved(filepath.Join(t.TempDir(), "nope.txt")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestDryRunPlansWhatTheEmulatorPlans runs the one-shot pass on a
// fresh snapshot, the cron-job case, and checks that its -dry-run
// victims are exactly what the emulator's policy for the same
// configuration plans at the same time. The only user has not worked
// since 2014 (Φ_op = 0) but read inflight.dat the day before the
// snapshot: the lifetime floor keeps that file, the reservation keeps
// keep/, and stale.dat goes.
func TestDryRunPlansWhatTheEmulatorPlans(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	snapAt := timeutil.Date(2016, time.January, 1)
	const (
		stale    = "/lustre/atlas/idle/stale.dat"
		inflight = "/lustre/atlas/idle/inflight.dat"
		kept     = "/lustre/atlas/idle/keep/old.dat"
	)
	ds := &trace.Dataset{
		Users: []trace.User{{ID: 0, Name: "idle", Created: timeutil.Date(2014, time.January, 1)}},
		Jobs:  []trace.Job{{User: 0, Submit: timeutil.Date(2014, time.March, 1), Duration: timeutil.Hour, Cores: 8}},
		Snapshot: trace.Snapshot{Taken: snapAt, Entries: []trace.SnapshotEntry{
			{Path: stale, User: 0, Size: 1 << 30, Stripes: 1, ATime: snapAt.Add(-timeutil.Days(200))},
			{Path: inflight, User: 0, Size: 4 << 30, Stripes: 1, ATime: snapAt.Add(-timeutil.Days(1))},
			{Path: kept, User: 0, Size: 1 << 30, Stripes: 1, ATime: snapAt.Add(-timeutil.Days(300))},
		}},
	}
	if err := trace.WriteDataset(data, ds); err != nil {
		t.Fatal(err)
	}
	reserve := filepath.Join(dir, "reserved.txt")
	if err := os.WriteFile(reserve, []byte("/lustre/atlas/idle/keep\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	at := snapAt.Add(timeutil.Days(1))

	for _, policy := range []string{sim.PolicyActiveDR, sim.PolicyFLT} {
		t.Run(policy, func(t *testing.T) {
			o, err := parseFlags([]string{"-data", data, "-policy", policy, "-lifetime", "30",
				"-target", "0.1", "-reserve", reserve, "-strict-eq7", "-at", at.DateString(), "-dry-run"}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := run(o, &out); err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, line := range strings.Split(out.String(), "\n") {
				if strings.HasPrefix(line, "  /") {
					got = append(got, strings.TrimSpace(line))
				}
			}

			loaded, err := trace.LoadDataset(data)
			if err != nil {
				t.Fatal(err)
			}
			rs := vfs.NewReservedSet()
			rs.Add("/lustre/atlas/idle/keep")
			em, err := sim.New(loaded, sim.Config{Lifetime: timeutil.Days(30), TargetUtilization: 0.1, Reserved: rs, StrictEq7: true})
			if err != nil {
				t.Fatal(err)
			}
			p, err := em.NewPolicy(policy)
			if err != nil {
				t.Fatal(err)
			}
			want := retention.Plan(p, em.BaseFS(), em.Evaluator().EvaluateAll(len(loaded.Users), at), at).Victims
			if !reflect.DeepEqual(got, want) {
				t.Errorf("-dry-run victims %v, emulator's policy plans %v", got, want)
			}
			if !slices.Contains(got, stale) || slices.Contains(got, inflight) || slices.Contains(got, kept) {
				t.Errorf("victims %v: want %s purged, %s (inside the lifetime floor) and %s (reserved) kept", got, stale, inflight, kept)
			}
		})
	}
}
