package vfs

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// TestLaneGroupMatchesDedicated drives a lane group and per-lane
// dedicated clones through the same schedule — day-batched ApplyRun
// churn with monotone timestamps, interleaved per-lane stale scans and
// RemoveCandidate purges at batch boundaries — and requires identical
// observable state throughout: miss masks, candidate lists,
// accounting, and the final snapshot. This pins the multiplexed fast
// paths (skip masks, node handles, dense accounting) directly at the
// vfs layer, beneath the sim-level equivalence suite.
func TestLaneGroupMatchesDedicated(t *testing.T) {
	const (
		lanes = 3
		users = 6
		days  = 40
	)
	rng := rand.New(rand.NewSource(17))
	day := timeutil.Time(daySeconds)

	base := New()
	paths := make([]string, 120)
	for i := range paths {
		paths[i] = fmt.Sprintf("/scratch/u%d/run%03d/out.dat", i%users, i)
		if i%3 == 0 {
			continue // a third of the namespace starts absent
		}
		m := FileMeta{
			User:    trace.UserID(i % users),
			Size:    int64(rng.Intn(900)) + 1,
			Stripes: 1,
			ATime:   timeutil.Time(rng.Int63n(int64(5 * day))),
		}
		if err := base.Insert(paths[i], m); err != nil {
			t.Fatal(err)
		}
	}

	group, err := NewLaneGroup(base, lanes, len(paths))
	if err != nil {
		t.Fatal(err)
	}
	ded := make([]*FS, lanes)
	for i := range ded {
		ded[i] = base.Clone()
	}

	// applyDedicated mirrors the replay's per-event semantics
	// (sim.Stream.Apply): create inserts, a touch hit renews, a touch
	// miss re-inserts. Returns whether the first event missed.
	applyDedicated := func(fs *FS, path string, evs []RunEvent) bool {
		missed := false
		for ei, ev := range evs {
			m := FileMeta{User: ev.User, Size: ev.Size, Stripes: 1, ATime: ev.TS}
			if ev.Create {
				if err := fs.Insert(path, m); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if fs.Touch(path, ev.TS) {
				continue
			}
			if ei != 0 {
				t.Fatalf("dedicated lane missed %q on event %d of a run", path, ei)
			}
			missed = true
			if err := fs.Insert(path, m); err != nil {
				t.Fatal(err)
			}
		}
		return missed
	}

	checkAccounting := func(d int) {
		t.Helper()
		for i := 0; i < lanes; i++ {
			lane := group.Lane(i)
			if got, want := lane.Count(), ded[i].Count(); got != want {
				t.Fatalf("day %d lane %d: Count %d != dedicated %d", d, i, got, want)
			}
			if got, want := lane.TotalBytes(), ded[i].TotalBytes(); got != want {
				t.Fatalf("day %d lane %d: TotalBytes %d != dedicated %d", d, i, got, want)
			}
			if got, want := lane.Users(), ded[i].Users(); !reflect.DeepEqual(got, want) {
				t.Fatalf("day %d lane %d: Users %v != dedicated %v", d, i, got, want)
			}
			for u := trace.UserID(0); u < users; u++ {
				if got, want := lane.UserBytes(u), ded[i].UserBytes(u); got != want {
					t.Fatalf("day %d lane %d user %d: bytes %d != %d", d, i, u, got, want)
				}
				if got, want := lane.UserFiles(u), ded[i].UserFiles(u); got != want {
					t.Fatalf("day %d lane %d user %d: files %d != %d", d, i, u, got, want)
				}
			}
		}
	}

	blankNodes := func(cs []Candidate) []Candidate {
		out := append([]Candidate(nil), cs...)
		for i := range out {
			out[i].node = nil
		}
		return out
	}

	ts := 6 * day // strictly after every seeded atime; advances monotonically
	for d := 0; d < days; d++ {
		// One day's batch: several runs over distinct paths, stream order.
		for r := 0; r < 8; r++ {
			pid := rng.Intn(len(paths))
			evs := make([]RunEvent, 1+rng.Intn(3))
			for ei := range evs {
				ts += timeutil.Time(1 + rng.Int63n(int64(day)/32))
				evs[ei] = RunEvent{
					User:   trace.UserID(rng.Intn(users)),
					Size:   int64(rng.Intn(900)) + 1,
					TS:     ts,
					Create: rng.Intn(5) == 0,
				}
			}
			missMask := group.ApplyRun(int32(pid), paths[pid], evs)
			for i := 0; i < lanes; i++ {
				missed := applyDedicated(ded[i], paths[pid], evs)
				if gotMiss := missMask&(1<<uint(i)) != 0; gotMiss != missed {
					t.Fatalf("day %d lane %d path %q: miss=%v, dedicated %v", d, i, paths[pid], gotMiss, missed)
				}
			}
		}

		// Batch boundary: each lane scans with its own cutoff (staggered
		// lifetimes, so lanes diverge) and purges a pseudo-random subset
		// via RemoveCandidate. Scanning twice exercises the skip masks:
		// the second scan of an exhausted bucket must yield the same
		// answer through the mask's fast path.
		if d%4 == 3 {
			for i := 0; i < lanes; i++ {
				lane := group.Lane(i)
				cutoff := ts - timeutil.Time(5+3*i)*day
				for u := trace.UserID(0); u < users; u++ {
					got := lane.StaleFiles(u, cutoff)
					want := ded[i].StaleFiles(u, cutoff)
					if !reflect.DeepEqual(blankNodes(got), blankNodes(want)) {
						t.Fatalf("day %d lane %d user %d: stale %v != dedicated %v", d, i, u, got, want)
					}
					for ci, c := range got {
						if (u+trace.UserID(ci))%3 != 0 {
							continue
						}
						gm, gok := lane.RemoveCandidate(c)
						dm, dok := ded[i].RemoveCandidate(want[ci])
						if gok != dok || gm != dm {
							t.Fatalf("day %d lane %d: RemoveCandidate(%q) = (%v,%v), dedicated (%v,%v)",
								d, i, c.Path, gm, gok, dm, dok)
						}
					}
					again := lane.StaleFiles(u, cutoff)
					wantAgain := ded[i].StaleFiles(u, cutoff)
					if !reflect.DeepEqual(blankNodes(again), blankNodes(wantAgain)) {
						t.Fatalf("day %d lane %d user %d: post-purge rescan diverges", d, i, u)
					}
				}
			}
		}
		checkAccounting(d)
	}

	// Final deep comparison: full metadata snapshots must agree.
	for i := 0; i < lanes; i++ {
		if !reflect.DeepEqual(group.Lane(i).Snapshot(0).Entries, ded[i].Snapshot(0).Entries) {
			t.Fatalf("lane %d: final snapshot diverges from dedicated clone", i)
		}
	}
}

// TestRemoveCandidateStaleHint pins the node-hint revalidation:
// removing through a candidate whose cached node was invalidated (the
// file was removed and its path re-created, so the node is stale or
// re-used) must behave exactly like a path-addressed Remove.
func TestRemoveCandidateStaleHint(t *testing.T) {
	day := timeutil.Time(daySeconds)
	base := New()
	if err := base.Insert("/a/f", FileMeta{User: 1, Size: 10, Stripes: 1, ATime: day}); err != nil {
		t.Fatal(err)
	}
	group, err := NewLaneGroup(base, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	l0, l1 := group.Lane(0), group.Lane(1)

	cands := l0.StaleFiles(1, 10*day)
	if len(cands) != 1 {
		t.Fatalf("stale = %v, want one candidate", cands)
	}
	c := cands[0]

	// Lane 0 purges, then the file is re-created for everyone with a
	// fresh atime. The old candidate now names a live file the lane
	// holds again — but under different metadata, so removing through
	// the stale candidate must remove the CURRENT file, like Remove.
	if _, ok := l0.RemoveCandidate(c); !ok {
		t.Fatal("first RemoveCandidate failed")
	}
	group.ApplyRun(0, "/a/f", []RunEvent{{User: 1, Size: 99, TS: 20 * day, Create: true}})
	m, ok := l0.RemoveCandidate(c)
	if !ok || m.Size != 99 || m.ATime != 20*day {
		t.Fatalf("RemoveCandidate after re-create = (%+v, %v), want the recreated file", m, ok)
	}
	if l0.UserFiles(1) != 0 {
		t.Fatalf("lane 0 still accounts %d files for user 1", l0.UserFiles(1))
	}
	// Lane 1 never purged: it must still hold the re-created file.
	if l1.UserFiles(1) != 1 || l1.UserBytes(1) != 99 {
		t.Fatalf("lane 1 accounting (%d files, %d bytes), want (1, 99)", l1.UserFiles(1), l1.UserBytes(1))
	}
	// A candidate for a file that no longer exists anywhere must fail.
	if _, ok := l0.RemoveCandidate(c); ok {
		t.Fatal("RemoveCandidate succeeded on an absent file")
	}
}

// TestApplyRunAtSplitNode applies runs to paths whose tree nodes hold
// no file: /u/ab, the split point over /u/abc and /u/abd, and /u/x, a
// purged file whose node stays on as the split over /u/x1 and /u/x2.
// Each must act as an absent file, as the private Touch and Insert
// treat it: a touch misses and re-inserts, a create adds a file, and
// the lane's accounting matches the files a walk finds.
func TestApplyRunAtSplitNode(t *testing.T) {
	base := New()
	for _, p := range []string{"/u/abc", "/u/abd", "/u/x", "/u/x1", "/u/x2"} {
		if err := base.Insert(p, FileMeta{User: 1, Size: 10, Stripes: 1, ATime: 5}); err != nil {
			t.Fatal(err)
		}
	}
	group := AdoptLaneGroup(base, 1, 0)
	if base.tree != nil || base.index != nil {
		t.Fatal("AdoptLaneGroup left the base holding the group's tree")
	}
	lane := group.Lane(0)
	if _, ok := lane.Remove("/u/x"); !ok {
		t.Fatal("Remove(/u/x) failed")
	}
	if mask := group.ApplyRun(0, "/u/ab", []RunEvent{{User: 2, Size: 7, TS: 9}}); mask != 1 {
		t.Fatalf("touch of /u/ab: miss mask %b, want 1", mask)
	}
	if m, ok := lane.Lookup("/u/ab"); !ok || m.User != 2 || m.Size != 7 {
		t.Fatalf("Lookup(/u/ab) = (%+v, %v), want user 2's 7-byte file", m, ok)
	}
	if mask := group.ApplyRun(0, "/u/x", []RunEvent{{User: 0, Size: 3, TS: 11, Create: true}}); mask != 0 {
		t.Fatalf("create of /u/x: miss mask %b, want 0", mask)
	}
	files, bytes, n := map[trace.UserID]int64{}, map[trace.UserID]int64{}, 0
	lane.Walk(func(_ string, m FileMeta) bool {
		files[m.User]++
		bytes[m.User] += m.Size
		n++
		return true
	})
	if n != 6 || lane.Count() != n {
		t.Fatalf("walk found %d files, Count() = %d, want 6 each", n, lane.Count())
	}
	for u := trace.UserID(0); u < 3; u++ {
		if lane.UserFiles(u) != files[u] || lane.UserBytes(u) != bytes[u] {
			t.Errorf("user %d accounts (%d files, %d bytes), walk finds (%d, %d)",
				u, lane.UserFiles(u), lane.UserBytes(u), files[u], bytes[u])
		}
	}
	if c := lane.StaleFiles(0, 12); len(c) != 1 || c[0].Path != "/u/x" {
		t.Fatalf("StaleFiles(0) = %v, want /u/x", c)
	}
}

// requireNodeMapIsTree checks the group's node map against a walk of
// its tree: the keys are exactly the terminal nodes' paths, each mapped
// to its own node. Every lane's Lookup of every path in universe — a
// fresh copy of the string each time, split points included — must
// agree with the lane's Walk.
func requireNodeMapIsTree(t *testing.T, g *LaneGroup, universe []string, step string) {
	t.Helper()
	terminals := 0
	var walk func(n *rnode[fileRecord], key string)
	walk = func(n *rnode[fileRecord], key string) {
		key += n.label
		if n.terminal {
			terminals++
			if n.value.path != key {
				t.Fatalf("%s: terminal node at %q holds the path %q", step, key, n.value.path)
			}
			if got := g.nodes[key]; got != n {
				t.Fatalf("%s: node map maps %q to %p, the tree's node is %p", step, key, got, n)
			}
		}
		for _, c := range n.children {
			walk(c, key)
		}
	}
	walk(g.tree.root, "")
	if len(g.nodes) != terminals {
		t.Fatalf("%s: node map holds %d paths, the tree %d terminal nodes", step, len(g.nodes), terminals)
	}
	for i, lane := range g.lanes {
		held := map[string]FileMeta{}
		lane.Walk(func(p string, m FileMeta) bool {
			held[p] = m
			return true
		})
		if lane.Count() != len(held) {
			t.Fatalf("%s: lane %d counts %d files, its walk finds %d", step, i, lane.Count(), len(held))
		}
		for _, p := range universe {
			m, ok := lane.Lookup(strings.Clone(p))
			want, wantOK := held[p]
			if ok != wantOK || m != want {
				t.Fatalf("%s: lane %d Lookup(%q) = (%+v, %v), its walk finds (%+v, %v)", step, i, p, m, ok, want, wantOK)
			}
		}
	}
}

// TestNodeMapIsTheTreesTerminals drives seeded random sequences of
// ApplyRun, Remove and RemoveCandidate on 1-lane and 3-lane groups,
// presenting every path as a fresh copy of its string, as a daemon's
// parsed events do. The namespace holds split points (/u/ab over
// /u/abc and /u/abd; /u/x over /u/x1 and /u/x2 once /u/x is purged)
// and purged paths that runs re-create. After every step the node map
// must be exactly the tree's terminal nodes.
func TestNodeMapIsTheTreesTerminals(t *testing.T) {
	universe := []string{
		"/u/abc", "/u/abd", "/u/ab", "/u/a", "/u/x", "/u/x1", "/u/x2",
		"/v/0/out.dat", "/v/1/out.dat", "/v/10/out.dat", "/v/2", "/w",
	}
	for _, lanes := range []int{1, 3} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("lanes=%d/seed=%d", lanes, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				base := New()
				for i, p := range universe {
					if i%3 == 2 {
						continue // /u/ab and others start absent
					}
					if err := base.Insert(strings.Clone(p), FileMeta{User: trace.UserID(i % 3), Size: int64(i + 1), Stripes: 1, ATime: timeutil.Time(i)}); err != nil {
						t.Fatal(err)
					}
				}
				g := AdoptLaneGroup(base, lanes, len(universe))
				requireNodeMapIsTree(t, g, universe, "adopt")
				ts := timeutil.Time(100)
				var cands []Candidate // kept across steps, so some go stale
				for step := 0; step < 400; step++ {
					pi := rng.Intn(len(universe))
					path := strings.Clone(universe[pi])
					lane := g.Lane(rng.Intn(lanes))
					var what string
					switch op := rng.Intn(10); {
					case op < 5:
						evs := make([]RunEvent, 1+rng.Intn(3))
						for ei := range evs {
							ts += timeutil.Time(1 + rng.Int63n(daySeconds))
							evs[ei] = RunEvent{User: trace.UserID(rng.Intn(3)), Size: int64(rng.Intn(50)), TS: ts, Create: rng.Intn(3) == 0}
						}
						pid := int32(pi)
						if rng.Intn(2) == 0 {
							pid = 0 // one handle slot for every path, as a stream uses
						}
						g.ApplyRun(pid, path, evs)
						what = fmt.Sprintf("ApplyRun(%d, %q)", pid, path)
						// Every lane holds the file after a run, touched last
						// by the run's last event.
						for i := 0; i < lanes; i++ {
							if m, ok := g.Lane(i).Lookup(path); !ok || m.ATime != ts {
								t.Fatalf("step %d %s: lane %d Lookup = (%+v, %v), want the file at atime %d", step, what, i, m, ok, ts)
							}
						}
					case op < 7:
						lane.Remove(path)
						what = fmt.Sprintf("Remove(%q)", path)
					default:
						if len(cands) == 0 || rng.Intn(3) == 0 {
							cands = lane.StaleFiles(trace.UserID(rng.Intn(3)), ts+1)
						}
						if len(cands) == 0 {
							continue
						}
						ci := rng.Intn(len(cands))
						c := cands[ci]
						c.Path = strings.Clone(c.Path)
						cands = append(cands[:ci], cands[ci+1:]...)
						lane.RemoveCandidate(c)
						what = fmt.Sprintf("RemoveCandidate(%q)", c.Path)
					}
					requireNodeMapIsTree(t, g, universe, fmt.Sprintf("step %d %s", step, what))
				}
			})
		}
	}
}
