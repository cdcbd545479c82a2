package vfs

import (
	"fmt"
	"testing"

	"activedr/internal/randx"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// requireWindow checks one dirty window TakeDirty handed over: it must
// hold exactly the paths mutated since the previous window, each with
// the state a Lookup reports at this instant, and the window opened in
// its place must start empty.
func requireWindow(t *testing.T, label string, fs *FS, w map[string]DirtyFile, mutated map[string]bool) {
	t.Helper()
	if len(w) != len(mutated) {
		t.Fatalf("%s: window holds %d paths, %d were mutated", label, len(w), len(mutated))
	}
	for p := range mutated {
		d, ok := w[p]
		if !ok {
			t.Fatalf("%s: mutated path %q missing from the window", label, p)
		}
		m, held := fs.Lookup(p)
		switch {
		case d.Removed && held:
			t.Fatalf("%s: window records %q removed, Lookup finds %+v", label, p, m)
		case !d.Removed && !held:
			t.Fatalf("%s: window records %q as %+v, Lookup finds nothing", label, p, d.Meta)
		case !d.Removed && d.Meta != m:
			t.Fatalf("%s: window records %q as %+v, Lookup finds %+v", label, p, d.Meta, m)
		}
	}
	if next := fs.TakeDirty(); next == nil || len(next) != 0 {
		t.Fatalf("%s: the next window starts with %d paths, want an empty window", label, len(next))
	}
	clear(mutated)
}

// dirtyPaths is the namespace the model tests mutate: few enough paths
// that inserts, touches and removes keep hitting the same ones.
func dirtyPaths(n, users int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("/scratch/u%d/run%02d/out.dat", i%users, i)
	}
	return out
}

// TestDirtyWindowLaneViews runs random ApplyRun sequences and per-lane
// Removes on lane groups whose lanes all track dirty windows, and
// checks each lane's windows against that lane's Lookup: a run
// re-inserts a purged file for the lanes that dropped it, and a miss
// re-insert that diverges from the shared record leaves an override.
// The one-lane group is a stream's namespace: one-event runs, all
// under path id 0 as Stream.Apply issues them, and Removes, which is
// what the daemon's delta checkpoints see.
func TestDirtyWindowLaneViews(t *testing.T) {
	const users = 4
	for _, lanes := range []int{3, 1} {
		src := randx.New(2604)
		day := timeutil.Time(daySeconds)
		paths := dirtyPaths(30, users)
		base := New()
		for i, p := range paths {
			if i%3 != 0 {
				if err := base.Insert(p, FileMeta{User: trace.UserID(i % users), Size: 10, Stripes: 4, ATime: day}); err != nil {
					t.Fatal(err)
				}
			}
		}
		group, err := NewLaneGroup(base, lanes, len(paths))
		if err != nil {
			t.Fatal(err)
		}
		mutated := make([]map[string]bool, lanes)
		for i := range mutated {
			group.Lane(i).TrackDirty()
			mutated[i] = make(map[string]bool)
		}
		ts := 2 * day
		for step := 0; step < 2000; step++ {
			pid := src.Intn(len(paths))
			p := paths[pid]
			if src.Intn(3) == 0 {
				// A purge-time removal in one lane, by path or through a
				// stale candidate as the policies do.
				i := src.Intn(lanes)
				lane := group.Lane(i)
				if src.Intn(2) == 0 {
					if _, ok := lane.Remove(p); ok {
						mutated[i][p] = true
					}
				} else {
					for _, c := range lane.StaleFiles(trace.UserID(src.Intn(users)), ts-day) {
						if _, ok := lane.RemoveCandidate(c); ok {
							mutated[i][c.Path] = true
						}
					}
				}
			} else {
				n := 1 // a stream's run is one event
				if lanes > 1 {
					n += src.Intn(3)
				} else {
					pid = 0
				}
				evs := make([]RunEvent, n)
				for ei := range evs {
					ts += timeutil.Time(1 + src.Int64n(int64(day)/16))
					evs[ei] = RunEvent{
						User:   trace.UserID(src.Intn(users)),
						Size:   src.Int64n(1000),
						TS:     ts,
						Create: src.Intn(4) == 0,
					}
				}
				group.ApplyRun(int32(pid), p, evs)
				for i := range mutated {
					mutated[i][p] = true
				}
			}
			if src.Intn(20) == 0 {
				for i := 0; i < lanes; i++ {
					lane := group.Lane(i)
					requireWindow(t, fmt.Sprintf("%d lanes, step %d lane %d", lanes, step, i), lane, lane.TakeDirty(), mutated[i])
				}
			}
		}
		for i := 0; i < lanes; i++ {
			lane := group.Lane(i)
			requireWindow(t, fmt.Sprintf("%d lanes, final lane %d", lanes, i), lane, lane.TakeDirty(), mutated[i])
		}
	}
}

// TestTrackDirtyRefusesPrivateFS pins the guard: a private FS and a
// dry-run view record no dirty window, so opening one panics instead of
// handing a delta checkpoint a window that stayed empty.
func TestTrackDirtyRefusesPrivateFS(t *testing.T) {
	for name, fs := range map[string]*FS{"private FS": New(), "dry-run view": New().DryRun()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("TrackDirty on a %s did not panic", name)
				}
			}()
			fs.TrackDirty()
		}()
	}
}
