package main

import (
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"activedr/internal/trace"
	"activedr/internal/vfs"
	"activedr/internal/workload"
)

func TestParseFlagsValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // empty = accepted
	}{
		{"defaults", nil, ""},
		{"explicit", []string{"-out", "d", "-users", "10", "-seed", "7", "-q"}, ""},
		{"empty out", []string{"-out", ""}, "-out must not be empty"},
		{"zero users", []string{"-users", "0"}, "-users must be >= 1"},
		{"negative users", []string{"-users", "-3"}, "-users must be >= 1"},
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"in2p3 with fit", []string{"-from-in2p3", "jobs.csv", "-fit", "m.json"}, ""},
		{"model with scale", []string{"-model", "m.json", "-scale", "10"}, ""},
		{"in2p3 and model", []string{"-from-in2p3", "j.csv", "-model", "m.json"}, "mutually exclusive"},
		{"fit without in2p3", []string{"-fit", "m.json"}, "-fit requires -from-in2p3"},
		{"scale without model", []string{"-scale", "5"}, "-scale requires -model"},
		{"zero scale", []string{"-model", "m.json", "-scale", "0"}, "-scale must be >= 1"},
		{"lenient without in2p3", []string{"-lenient"}, "-lenient requires -from-in2p3"},
		{"users with model", []string{"-model", "m.json", "-users", "50"}, "-users sizes the synthetic dataset only"},
		{"users with in2p3", []string{"-from-in2p3", "j.csv", "-users", "50"}, "-users sizes the synthetic dataset only"},
		{"in2p3 zone", []string{"-from-in2p3", "j.csv", "-in2p3-zone", "UTC"}, ""},
		{"unknown in2p3 zone", []string{"-from-in2p3", "j.csv", "-in2p3-zone", "No/Such_Zone"}, "-in2p3-zone:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parseFlags(tc.args, io.Discard)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				if o == nil {
					t.Fatal("no options returned")
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestRunWritesDataset(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	var summary strings.Builder
	if err := run(&options{out: dir, users: 20, seed: 3}, &summary); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(summary.String(), "20 users") {
		t.Fatalf("summary %q does not mention the user count", summary.String())
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "*")); len(m) == 0 {
		t.Fatal("no dataset files written")
	}
}

// TestRunIN2P3FitRegen drives the full adapt -> fit -> regen loop
// through the command surface: adapt the bundled IN2P3 sample, fit a
// model, regenerate at 2x with a snapfile, and check that the
// dataset's snapshot TSV and the snapfile hold the same entries.
func TestRunIN2P3FitRegen(t *testing.T) {
	dir := t.TempDir()
	sample := filepath.Join("..", "..", "internal", "workload", "testdata", "in2p3_sample.csv")
	model := filepath.Join(dir, "model.json")
	var out strings.Builder
	o, err := parseFlags([]string{
		"-out", filepath.Join(dir, "real"),
		"-from-in2p3", sample,
		"-in2p3-zone", workload.DefaultZone,
		"-fit", model,
		"-seed", "7",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fitted 12-user model") {
		t.Fatalf("summary %q does not mention the fitted model", out.String())
	}

	snap := filepath.Join(dir, "big.snap")
	out.Reset()
	o, err = parseFlags([]string{
		"-out", filepath.Join(dir, "big"),
		"-model", model,
		"-scale", "2",
		"-seed", "7",
		"-vfs-snapshot-out", snap,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "regenerated") || !strings.Contains(out.String(), "24 users") {
		t.Fatalf("summary %q does not report the 2x regeneration", out.String())
	}
	ds, err := trace.LoadDataset(filepath.Join(dir, "big"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Users) != 24 {
		t.Fatalf("regenerated dataset has %d users, want 24", len(ds.Users))
	}
	if len(ds.Snapshot.Entries) == 0 {
		t.Fatal("regenerated dataset's snapshot TSV is empty")
	}
	sf, err := vfs.OpenSnapfile(snap)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := vfs.LoadSnapfileFS(sf)
	if cerr := sf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if sf.Taken() != ds.Snapshot.Taken {
		t.Fatalf("snapfile taken %d, snapshot TSV taken %d", sf.Taken(), ds.Snapshot.Taken)
	}
	if got := fs.Snapshot(ds.Snapshot.Taken); !reflect.DeepEqual(got.Entries, ds.Snapshot.Entries) {
		t.Fatalf("snapfile holds %d entries, snapshot TSV %d, and they differ",
			len(got.Entries), len(ds.Snapshot.Entries))
	}
}
