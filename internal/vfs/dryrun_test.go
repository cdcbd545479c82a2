package vfs

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// requireMatchesModel checks every read a purge pass or a report
// makes of fs against a path→meta model: totals, per-user accounting,
// users, lookups and the walk.
func requireMatchesModel(t *testing.T, label string, fs *FS, model map[string]FileMeta, paths []string) {
	t.Helper()
	if fs.Count() != len(model) {
		t.Fatalf("%s: Count = %d, want %d", label, fs.Count(), len(model))
	}
	var total int64
	userBytes := map[trace.UserID]int64{}
	userFiles := map[trace.UserID]int64{}
	for _, m := range model {
		total += m.Size
		userBytes[m.User] += m.Size
		userFiles[m.User]++
	}
	if fs.TotalBytes() != total {
		t.Fatalf("%s: TotalBytes = %d, want %d", label, fs.TotalBytes(), total)
	}
	users := fs.Users()
	if len(users) != len(userFiles) {
		t.Fatalf("%s: Users = %v, want %d users", label, users, len(userFiles))
	}
	for _, u := range users {
		if fs.UserFiles(u) != userFiles[u] || fs.UserBytes(u) != userBytes[u] {
			t.Fatalf("%s: user %d holds %d files / %d bytes, want %d / %d",
				label, u, fs.UserFiles(u), fs.UserBytes(u), userFiles[u], userBytes[u])
		}
	}
	for _, p := range paths {
		got, ok := fs.Lookup(p)
		want, exists := model[p]
		if ok != exists || got != want {
			t.Fatalf("%s: Lookup(%q) = %+v, %v; want %+v, %v", label, p, got, ok, want, exists)
		}
	}
	walked := map[string]FileMeta{}
	fs.Walk(func(p string, m FileMeta) bool {
		walked[p] = m
		return true
	})
	if !maps.Equal(walked, model) {
		t.Fatalf("%s: Walk visits %d files, want %d", label, len(walked), len(model))
	}
}

// TestDryRunViewAgainstModel interleaves dry-run views with random
// churn on their source. Each view removes a random mix of stale
// candidates and plain paths, and must then answer every read for the
// source minus its removals, while the source, whose index the view's
// queries compacted, still answers for itself.
func TestDryRunViewAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fs := New()
	model := make(map[string]FileMeta)
	const users = 6
	paths := make([]string, 200)
	for i := range paths {
		paths[i] = fmt.Sprintf("/scratch/u%d/job%03d/out.dat", i%users, i)
	}
	randTime := func() timeutil.Time { return timeutil.Time(rng.Int63n(int64(timeutil.Days(200)))) }
	for step := 0; step < 3000; step++ {
		p := paths[rng.Intn(len(paths))]
		switch op := rng.Intn(20); {
		case op < 10:
			m := FileMeta{User: trace.UserID(rng.Intn(users)), Size: int64(rng.Intn(1000)) + 1, ATime: randTime()}
			if err := fs.Insert(p, m); err != nil {
				t.Fatal(err)
			}
			model[p] = m
		case op < 14:
			at := randTime()
			if fs.Touch(p, at) {
				m := model[p]
				m.ATime = at
				model[p] = m
			}
		case op < 16:
			fs.Remove(p)
			delete(model, p)
		case op < 19:
			checkStale(t, fs, model, trace.UserID(rng.Intn(users)), randTime())
		default:
			view := fs.DryRun()
			left := maps.Clone(model)
			for i, n := 0, rng.Intn(4); i < n; i++ {
				u := trace.UserID(rng.Intn(users))
				for _, c := range view.StaleFiles(u, randTime()) {
					if rng.Intn(2) == 0 {
						continue
					}
					m, ok := view.RemoveCandidate(c)
					if !ok || m != left[c.Path] {
						t.Fatalf("step %d: view RemoveCandidate(%q) = %+v, %v; want %+v", step, c.Path, m, ok, left[c.Path])
					}
					delete(left, c.Path)
				}
				q := paths[rng.Intn(len(paths))]
				m, ok := view.Remove(q)
				if want, exists := left[q]; ok != exists || m != want {
					t.Fatalf("step %d: view Remove(%q) = %+v, %v; want %+v, %v", step, q, m, ok, want, exists)
				}
				delete(left, q)
				if _, ok := view.Remove(q); ok {
					t.Fatalf("step %d: view removed %q twice", step, q)
				}
				checkStale(t, view, left, trace.UserID(rng.Intn(users)), randTime())
			}
			requireMatchesModel(t, fmt.Sprintf("step %d view", step), view, left, paths)
			requireMatchesModel(t, fmt.Sprintf("step %d source", step), fs, model, paths)
			requireMatchesModel(t, fmt.Sprintf("step %d view clone", step), view.Clone(), left, paths)
		}
	}
	for u := 0; u < users; u++ {
		checkStale(t, fs, model, trace.UserID(u), timeutil.Time(timeutil.Days(400)))
	}
}

// TestDryRunViewPanics pins the view's read-only surface: Insert and
// Touch panic, as on lane views, and only a private FS has a view.
func TestDryRunViewPanics(t *testing.T) {
	fs := New()
	if err := fs.Insert("/u/a", meta(1, 10)); err != nil {
		t.Fatal(err)
	}
	g, err := NewLaneGroup(fs, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	view := fs.DryRun()
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"Insert", func() { _ = view.Insert("/u/b", meta(1, 1)) }},
		{"Touch", func() { view.Touch("/u/a", t0) }},
		{"DryRun of view", func() { view.DryRun() }},
		{"DryRun of lane", func() { g.Lane(0).DryRun() }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.fn()
		}()
	}
	if _, ok := view.Remove("/u/a"); !ok || view.Count() != 0 || fs.Count() != 1 {
		t.Fatalf("view Remove: view holds %d, source %d", view.Count(), fs.Count())
	}
	if got := fs.StaleFiles(1, t0+1); len(got) != 1 || got[0].Path != "/u/a" {
		t.Fatalf("source stale files = %v, want /u/a", got)
	}
}
