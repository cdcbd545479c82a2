package vfs

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
// paths (skip masks, record handles, dense accounting) directly at the
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

	blankIDs := func(cs []Candidate) []Candidate {
		out := append([]Candidate(nil), cs...)
		for i := range out {
			out[i].id = 0
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
					if !reflect.DeepEqual(blankIDs(got), blankIDs(want)) {
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
					if !reflect.DeepEqual(blankIDs(again), blankIDs(wantAgain)) {
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

// TestRemoveCandidateStaleHint pins the id-hint revalidation:
// removing through a candidate whose record was released (the file
// was removed and its path re-created, under a reused or a fresh id)
// must behave exactly like a path-addressed Remove.
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

// TestApplyRunAtPathPrefix applies runs to paths that are string
// prefixes of held files: /u/ab, a prefix of /u/abc and /u/abd, and
// /u/x, a purged file beside the held /u/x1 and /u/x2. Each must act
// as an absent file, as the private Touch and Insert treat it: a touch
// misses and re-inserts, a create adds a file, and the lane's
// accounting matches the files a walk finds.
func TestApplyRunAtPathPrefix(t *testing.T) {
	base := New()
	for _, p := range []string{"/u/abc", "/u/abd", "/u/x", "/u/x1", "/u/x2"} {
		if err := base.Insert(p, FileMeta{User: 1, Size: 10, Stripes: 1, ATime: 5}); err != nil {
			t.Fatal(err)
		}
	}
	group := AdoptLaneGroup(base, 1, 0)
	if base.tab != nil || base.index != nil {
		t.Fatal("AdoptLaneGroup left the base holding the group's table")
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

// requireTable checks a record table's bookkeeping: the path map holds
// exactly the live records, each live id maps back to its path, and
// every released id is listed once and holds the zero record, so no
// path string stays reachable through it.
func requireTable(t *testing.T, tab *table, step string) {
	t.Helper()
	live := 0
	for i := range tab.recs {
		rec := &tab.recs[i]
		if rec.path == "" {
			continue
		}
		live++
		if id, ok := tab.ids[rec.path]; !ok || id != int32(i) {
			t.Fatalf("%s: record %d holds %q, the map gives (%d, %v)", step, i, rec.path, id, ok)
		}
	}
	if len(tab.ids) != live {
		t.Fatalf("%s: the map holds %d paths, the slab %d live records", step, len(tab.ids), live)
	}
	released := map[int32]bool{}
	for _, id := range tab.free {
		if released[id] || tab.recs[id] != (fileRecord{}) {
			t.Fatalf("%s: released id %d listed twice or holding %+v", step, id, tab.recs[id])
		}
		released[id] = true
	}
	if live+len(released) != len(tab.recs) {
		t.Fatalf("%s: %d live and %d released ids in a slab of %d", step, live, len(released), len(tab.recs))
	}
}

// requireModel checks every read of fs against a path→meta model:
// Count, the Lookup of a fresh copy of every path in universe, and the
// Snapshot.
func requireModel(t *testing.T, fs *FS, model map[string]FileMeta, universe []string, step string) {
	t.Helper()
	if fs.Count() != len(model) {
		t.Fatalf("%s: Count = %d, model %d", step, fs.Count(), len(model))
	}
	for _, p := range universe {
		m, ok := fs.Lookup(strings.Clone(p))
		if want, held := model[p]; ok != held || m != want {
			t.Fatalf("%s: Lookup(%q) = (%+v, %v), model (%+v, %v)", step, p, m, ok, want, held)
		}
	}
	want := make([]trace.SnapshotEntry, 0, len(model))
	for p, m := range model {
		want = append(want, trace.SnapshotEntry{Path: p, User: m.User, Size: m.Size, Stripes: m.Stripes, ATime: m.ATime})
	}
	slices.SortFunc(want, func(a, b trace.SnapshotEntry) int { return strings.Compare(a.Path, b.Path) })
	if got := fs.Snapshot(0).Entries; !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Snapshot\n got %v\nwant %v", step, got, want)
	}
}

// applyModel applies a run to one lane's model as a dedicated FS
// would: a create stores the event's file, a touch renews a held file,
// and a touch of an absent file misses and stores it.
func applyModel(model map[string]FileMeta, path string, evs []RunEvent) {
	for _, ev := range evs {
		if m, held := model[path]; held && !ev.Create {
			m.ATime = ev.TS
			model[path] = m
			continue
		}
		model[path] = FileMeta{User: ev.User, Size: ev.Size, Stripes: 1, ATime: ev.TS}
	}
}

// TestRecordTableMatchesModel drives seeded random sequences of
// ApplyRun, Remove, purges through StaleFiles and RemoveCandidate, and
// Clone on lane groups of 1, 2, 3 and 64 lanes, presenting every path
// as a fresh copy of its string, as a daemon's parsed events do.
// Candidates are kept across steps, so some name records released
// since and ids reused for other paths. The namespace holds string
// prefixes of held files (/u/ab beside /u/abc, /u/x beside /u/x1) and
// purged paths that runs re-create. After every step the shared table
// must hold exactly the records some lane holds (requireTable), and
// every lane must answer Lookup, Count and Snapshot as its model does.
// A lane's Clone is a private FS with a table of its own; a one-lane
// group sometimes re-adopts one, as a resumed stream does.
func TestRecordTableMatchesModel(t *testing.T) {
	universe := []string{
		"/u/abc", "/u/abd", "/u/ab", "/u/a", "/u/x", "/u/x1", "/u/x2",
		"/p/run", "/p/run1.dat", "/v/0/out.dat", "/v/1/out.dat", "/v/10/out.dat", "/v/2", "/w",
	}
	for _, lanes := range []int{1, 2, 3, 64} {
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
				models := make([]map[string]FileMeta, lanes)
				for i := range models {
					models[i] = map[string]FileMeta{}
					base.Walk(func(p string, m FileMeta) bool {
						models[i][p] = m
						return true
					})
				}
				g := AdoptLaneGroup(base, lanes, len(universe))
				check := func(step string) {
					t.Helper()
					requireTable(t, g.tab, step)
					for id := range g.tab.recs {
						if rec := &g.tab.recs[id]; rec.path != "" && rec.dropped == g.allMask {
							t.Fatalf("%s: record %d (%q) is live, but no lane holds it", step, id, rec.path)
						}
					}
					for i := range models {
						requireModel(t, g.Lane(i), models[i], universe, fmt.Sprintf("%s lane %d", step, i))
					}
				}
				check("adopt")
				ts := timeutil.Time(100)
				var cands []Candidate // kept across steps, so some go stale
				for step := 0; step < 300; step++ {
					pi := rng.Intn(len(universe))
					path := strings.Clone(universe[pi])
					li := rng.Intn(lanes)
					lane := g.Lane(li)
					var what string
					switch op := rng.Intn(20); {
					case op < 10:
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
						for _, model := range models {
							applyModel(model, path, evs)
						}
						what = fmt.Sprintf("ApplyRun(%d, %q)", pid, path)
					case op < 13:
						m, ok := lane.Remove(path)
						if want, held := models[li][path]; ok != held || m != want {
							t.Fatalf("step %d: lane %d Remove(%q) = (%+v, %v), model (%+v, %v)", step, li, path, m, ok, want, held)
						}
						delete(models[li], path)
						what = fmt.Sprintf("lane %d Remove(%q)", li, path)
					case op < 18:
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
						m, ok := lane.RemoveCandidate(c)
						if want, held := models[li][c.Path]; ok != held || m != want {
							t.Fatalf("step %d: lane %d RemoveCandidate(%q) = (%+v, %v), model (%+v, %v)", step, li, c.Path, m, ok, want, held)
						}
						delete(models[li], c.Path)
						what = fmt.Sprintf("lane %d RemoveCandidate(%q)", li, c.Path)
					default:
						c := lane.Clone()
						what = fmt.Sprintf("lane %d Clone", li)
						requireTable(t, c.tab, what)
						requireModel(t, c, models[li], universe, what)
						if lanes == 1 && rng.Intn(2) == 0 {
							g = AdoptLaneGroup(c, 1, len(universe))
							what = "re-adopt"
						}
					}
					check(fmt.Sprintf("step %d %s", step, what))
				}
			})
		}
	}
}

// TestReusedIDIsNotTrusted pins the hazard of id reuse: after a file
// is released and its id reused for another path of the same owner
// and atime, neither a candidate nor an index entry that still holds
// the old id may stand for the new file. The stale candidate removes
// nothing, and a compaction emits the new file once, under its own
// path.
func TestReusedIDIsNotTrusted(t *testing.T) {
	day := timeutil.Time(daySeconds)
	for _, lanes := range []int{0, 1, 3} {
		fs := New()
		for _, p := range []string{"/a", "/b"} {
			if err := fs.Insert(p, FileMeta{User: 1, Size: 10, Stripes: 1, ATime: day}); err != nil {
				t.Fatal(err)
			}
		}
		if lanes > 0 {
			fs = AdoptLaneGroup(fs, lanes, 1).Lane(0)
		}
		cands := fs.StaleFiles(1, 2*day)
		if len(cands) != 2 || cands[0].Path != "/a" {
			t.Fatalf("lanes=%d: stale = %v, want /a and /b", lanes, cands)
		}
		stale := cands[0]
		for i := 0; i < max(lanes, 1); i++ {
			lane := fs
			if lanes > 0 {
				lane = fs.group.Lane(i)
			}
			if _, ok := lane.Remove("/a"); !ok {
				t.Fatalf("lanes=%d: Remove(/a) failed in lane %d", lanes, i)
			}
		}
		if lanes > 0 {
			fs.group.ApplyRun(0, "/c", []RunEvent{{User: 1, Size: 99, TS: day, Create: true}})
		} else if err := fs.Insert("/c", FileMeta{User: 1, Size: 99, Stripes: 1, ATime: day}); err != nil {
			t.Fatal(err)
		}
		if id := fs.tab.ids["/c"]; id != stale.id {
			t.Fatalf("lanes=%d: /c got id %d, want the released id %d of /a", lanes, id, stale.id)
		}
		if m, ok := fs.RemoveCandidate(stale); ok {
			t.Fatalf("lanes=%d: RemoveCandidate(/a) through a reused id removed %+v", lanes, m)
		}
		got := fs.StaleFiles(1, 2*day)
		if len(got) != 2 || got[0].Path != "/b" || got[1].Path != "/c" || got[1].Meta.Size != 99 {
			t.Fatalf("lanes=%d: stale after reuse = %v, want /b and /c", lanes, got)
		}
	}
}
