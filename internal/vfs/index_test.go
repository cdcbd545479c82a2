package vfs

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// modelStale computes StaleFiles' contract by brute force over a
// path→meta map: live files of u with ATime < cutoff, (ATime, Path)
// ascending.
func modelStale(model map[string]FileMeta, u trace.UserID, cutoff timeutil.Time) []Candidate {
	var out []Candidate
	for p, m := range model {
		if m.User == u && m.ATime < cutoff {
			out = append(out, Candidate{Path: p, Meta: m})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Meta.ATime != out[j].Meta.ATime {
			return out[i].Meta.ATime < out[j].Meta.ATime
		}
		return out[i].Path < out[j].Path
	})
	return out
}

func checkStale(t *testing.T, fs *FS, model map[string]FileMeta, u trace.UserID, cutoff timeutil.Time) {
	t.Helper()
	got := fs.StaleFiles(u, cutoff)
	want := modelStale(model, u, cutoff)
	if len(got) == 0 && len(want) == 0 {
		return
	}
	// The model doesn't predict the record id hint; blank it before
	// comparing the contractual (Path, Meta) content.
	got = append([]Candidate(nil), got...)
	for i := range got {
		got[i].id = 0
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("StaleFiles(%d, %d):\n got %v\nwant %v", u, cutoff, got, want)
	}
}

// TestStaleFilesAgainstModel drives the FS and a map model through
// random churn (inserts, replacements, touches, removes) with
// interleaved stale queries — the queries themselves compact index
// buckets, so this also exercises compaction correctness.
func TestStaleFilesAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fs := New()
	model := make(map[string]FileMeta)
	const users = 8
	paths := make([]string, 240)
	for i := range paths {
		paths[i] = fmt.Sprintf("/scratch/u%d/job%03d/out.dat", i%users, i)
	}
	randTime := func() timeutil.Time { return timeutil.Time(rng.Int63n(int64(timeutil.Days(200)))) }
	for step := 0; step < 6000; step++ {
		p := paths[rng.Intn(len(paths))]
		switch op := rng.Intn(10); {
		case op < 5: // insert or replace, sometimes changing owner
			m := FileMeta{
				User:  trace.UserID(rng.Intn(users)),
				Size:  int64(rng.Intn(1000)) + 1,
				ATime: randTime(),
			}
			if err := fs.Insert(p, m); err != nil {
				t.Fatal(err)
			}
			model[p] = m
		case op < 7:
			at := randTime()
			ok := fs.Touch(p, at)
			if _, exists := model[p]; ok != exists {
				t.Fatalf("Touch(%q) = %v, model says %v", p, ok, exists)
			}
			if ok {
				m := model[p]
				m.ATime = at
				model[p] = m
			}
		case op < 8:
			_, ok := fs.Remove(p)
			if _, exists := model[p]; ok != exists {
				t.Fatalf("Remove(%q) = %v, model says %v", p, ok, exists)
			}
			delete(model, p)
		default:
			checkStale(t, fs, model, trace.UserID(rng.Intn(users)), randTime())
		}
	}
	// Final sweep: every user at several cutoffs, including extremes.
	cutoffs := []timeutil.Time{0, timeutil.Time(timeutil.Days(50)), timeutil.Time(timeutil.Days(400))}
	for u := 0; u < users; u++ {
		for _, c := range cutoffs {
			checkStale(t, fs, model, trace.UserID(u), c)
		}
	}
}

// TestStaleFilesTombstones pins the lazy-invalidation rules: touched,
// removed and chowned files must not be reported under their old
// atime or owner.
func TestStaleFilesTombstones(t *testing.T) {
	fs := New()
	day := timeutil.Time(daySeconds)
	mustInsert := func(p string, u trace.UserID, at timeutil.Time) {
		t.Helper()
		if err := fs.Insert(p, FileMeta{User: u, Size: 1, ATime: at}); err != nil {
			t.Fatal(err)
		}
	}
	mustInsert("/a", 1, day)
	mustInsert("/b", 1, day)
	mustInsert("/c", 1, day)
	fs.Touch("/a", 100*day)  // renewed: no longer stale
	fs.Remove("/b")          // gone
	mustInsert("/c", 2, day) // chowned to user 2
	if got := fs.StaleFiles(1, 50*day); len(got) != 0 {
		t.Fatalf("user 1 stale = %v, want none", got)
	}
	got := fs.StaleFiles(2, 50*day)
	if len(got) != 1 || got[0].Path != "/c" || got[0].Meta.User != 2 {
		t.Fatalf("user 2 stale = %v, want /c", got)
	}
	// /a reappears once the cutoff passes its renewed atime.
	got = fs.StaleFiles(1, 200*day)
	if len(got) != 1 || got[0].Path != "/a" || got[0].Meta.ATime != 100*day {
		t.Fatalf("user 1 stale after renewal = %v", got)
	}
}

// TestCloneCopiesIndex verifies a clone's candidate index is
// independent of the original's subsequent mutations, and vice versa.
func TestCloneCopiesIndex(t *testing.T) {
	fs := New()
	day := timeutil.Time(daySeconds)
	for i := 0; i < 20; i++ {
		if err := fs.Insert(fmt.Sprintf("/u/f%02d", i), FileMeta{User: 3, Size: 10, ATime: timeutil.Time(i) * day}); err != nil {
			t.Fatal(err)
		}
	}
	clone := fs.Clone()
	fs.Touch("/u/f00", 100*day)
	fs.Remove("/u/f01")
	if got := len(clone.StaleFiles(3, 50*day)); got != 20 {
		t.Fatalf("clone sees %d stale files, want 20 (original mutated)", got)
	}
	clone.Remove("/u/f02")
	if got := len(fs.StaleFiles(3, 50*day)); got != 18 {
		// original lost f00 (renewed) and f01 (removed), not f02
		t.Fatalf("original sees %d stale files, want 18", got)
	}
}

func TestUsersSorted(t *testing.T) {
	fs := New()
	for _, u := range []trace.UserID{9, 2, 5, 2, 7} {
		if err := fs.Insert(fmt.Sprintf("/u%d/f", u), FileMeta{User: u, Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	want := []trace.UserID{2, 5, 7, 9}
	if got := fs.Users(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Users() = %v, want %v", got, want)
	}
	fs.Remove("/u5/f")
	want = []trace.UserID{2, 7, 9}
	if got := fs.Users(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Users() after remove = %v, want %v", got, want)
	}
}
