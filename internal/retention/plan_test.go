package retention

import (
	"math/rand"
	"reflect"
	"testing"

	"activedr/internal/timeutil"
	"activedr/internal/vfs"
)

// stripElapsed copies a report with its wall-clock field zeroed.
func stripElapsed(r *Report) Report {
	c := *r
	c.Elapsed = 0
	return c
}

// TestPlanMatchesPurgeOfClone pins the dry-run view: on randomized
// namespaces (atime ties, tombstones, a re-owned path, a reserved
// subtree), Plan's report equals a real Purge of a Clone with victims
// collected, for FLT and ActiveDR with
// a target and retro passes in both scan orders. A plan on a one-lane
// view of the same namespace, a stream's, reports the same. Plans
// leave their sources' snapshots unchanged, and a real purge of the
// source after the plans, whose views compacted its index, equals one
// of a clone taken before them.
func TestPlanMatchesPurgeOfClone(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	var retro, exempt, purged int // the shapes the seeds reached
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		base, ranks := randomFS(rng, 2+rng.Intn(6), 50+rng.Intn(250))
		reserved := vfs.NewReservedSet()
		reserved.Add("/scratch/u1/d3")
		lifetime := timeutil.Days(30 + rng.Intn(120))
		target := 0.2 + 0.6*rng.Float64()
		capacity := base.TotalBytes()
		policies := []func(collect bool) Policy{
			func(collect bool) Policy {
				return &FLT{Lifetime: lifetime, Reserved: reserved, CollectVictims: collect}
			},
		}
		for _, order := range []ScanOrder{ScanOrderGroups, ScanOrderMergedByOutcome} {
			policies = append(policies, func(collect bool) Policy {
				adr, err := NewActiveDR(Config{
					Lifetime: lifetime, Capacity: capacity, TargetUtilization: target,
					MinLifetime: timeutil.Week, Reserved: reserved, Order: order,
					CollectVictims: collect,
				})
				if err != nil {
					t.Fatal(err)
				}
				return adr
			})
		}

		before := base.Snapshot(tc)
		pristine := base.Clone()
		group, err := vfs.NewLaneGroup(base, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		lane := group.Lane(0)
		for i, mk := range policies {
			got := stripElapsed(Plan(mk(false), base, ranks, tc))
			want := stripElapsed(mk(true).Purge(base.Clone(), ranks, tc))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d policy %d: plan diverges from a purge of a clone\n got %+v\nwant %+v",
					seed, i, got, want)
			}
			if onLane := stripElapsed(Plan(mk(false), lane, ranks, tc)); !reflect.DeepEqual(onLane, got) {
				t.Fatalf("seed %d policy %d: plan on a one-lane view diverges\n got %+v\nwant %+v",
					seed, i, onLane, got)
			}
			retro += got.RetroPasses
			exempt += int(got.SkippedExempt)
			purged += int(got.PurgedFiles)
		}
		if after := base.Snapshot(tc); !reflect.DeepEqual(after.Entries, before.Entries) {
			t.Fatalf("seed %d: plans changed the source: %d files, want %d", seed, len(after.Entries), len(before.Entries))
		}
		if after := lane.Snapshot(tc); !reflect.DeepEqual(after.Entries, before.Entries) {
			t.Fatalf("seed %d: plans changed the one-lane view: %d files, want %d", seed, len(after.Entries), len(before.Entries))
		}
		mk := policies[rng.Intn(len(policies))]
		real := mk(true).Purge(base, ranks, tc)
		ref := mk(true).Purge(pristine, ranks, tc)
		if got, want := selectionDigest(t, []*Report{real}, base), selectionDigest(t, []*Report{ref}, pristine); got != want {
			t.Fatalf("seed %d: a purge after plans diverges from one on a clone taken before them", seed)
		}
	}
	if retro == 0 || exempt == 0 || purged == 0 {
		t.Fatalf("seeds reached %d retro passes, %d exempt skips, %d purged files; want all three", retro, exempt, purged)
	}
}
