package retention

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"activedr/internal/activeness"
	"activedr/internal/faults"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

// randomFS builds a randomized namespace: several users with varied
// file ages (some clustered on the same atime to exercise path
// tiebreaks), plus some churn so the candidate index carries
// tombstones before the purge runs.
func randomFS(rng *rand.Rand, users, files int) (*vfs.FS, []activeness.Rank) {
	fs := vfs.New()
	for i := 0; i < files; i++ {
		u := trace.UserID(rng.Intn(users))
		age := rng.Intn(400)
		if rng.Intn(4) == 0 {
			age = 200 // shared atime: tiebreak territory
		}
		addFile(fs, fmt.Sprintf("/scratch/u%d/d%d/f%03d", u, i%7, i), u, int64(rng.Intn(5000)+1), age)
	}
	// Churn: renew some files, remove some, re-insert one path under a
	// different owner. The churn runs over a snapshot of the namespace,
	// so it visits every file once, in path order, whatever it removes.
	for i, e := range fs.Snapshot(tc).Entries {
		switch (i + 1) % 11 {
		case 0:
			fs.Touch(e.Path, tc.Add(-timeutil.Days(rng.Intn(100))))
		case 5:
			fs.Remove(e.Path)
		}
	}
	addFile(fs, "/scratch/u0/d0/reowned", trace.UserID(users-1), 77, 300)
	ranks := make([]activeness.Rank, users)
	for u := range ranks {
		switch rng.Intn(4) {
		case 0: // both inactive
		case 1:
			ranks[u] = activeness.Rank{Op: rng.Float64() * 3, HasOp: true}
		case 2:
			ranks[u] = activeness.Rank{Oc: rng.Float64() * 3, HasOc: true}
		case 3:
			ranks[u] = ranked(rng.Float64()*3, rng.Float64()*3)
		}
	}
	return fs, ranks
}

// selectionDigest fingerprints a purge sequence: every report with
// wall clock zeroed (victim order, group accounting and fault outcomes
// included), then the post-purge namespace.
func selectionDigest(t *testing.T, reps []*Report, fs *vfs.FS) string {
	t.Helper()
	norm := make([]Report, len(reps))
	for i, r := range reps {
		norm[i] = *r
		norm[i].Elapsed = 0
	}
	blob, err := json.Marshal(struct {
		Reports []Report
		Final   []trace.SnapshotEntry
	}{norm, fs.Snapshot(tc).Entries})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// selectionGolden holds the committed selectionDigest of every
// TestIndexedSelectionEquivalence case.
var selectionGolden = map[string]string{
	"flt/trial0": "dfddef33dbdc961931db8a5172d857d4b33068d5ae0fa6e6aa88ae33cee19de2",
	"flt/trial1": "5656649ea9d6455487a565cbbeb4eddc41df5386eaab24cbb81f0bbabddaca89",
	"flt/trial2": "15d03688c3fd192bf4039454ee119b2f25b63c5cd43d4d6a0d6cf66cb0526a06",
	"flt/trial3": "0a13a1bf33afc525082794d9e1ea62470a8c196ecb5a86fde3ec732181d6c42e",
	"flt/trial4": "2d57e2a0e08070d7207e9d9b51e6d0a6095add7559033bf3fc8baa6bcf892c4b",
	"flt/trial5": "f2f5e8e9cfff4a189f430aee9a7a37ed63dab35d02bff1d4ed87ea9563d58d9b",
	"adr/trial0": "e18a6c54df9f019985a53780b4541e457bda6408bedd494f2dff7a6bfd5ab93e",
	"adr/trial1": "50a51325fce2b0503d796dd161e4c7d8f0ad04a98a70e8119e7bf9be7e14f421",
	"adr/trial2": "c41b94d5ff98fe7250592c938ca2ad8be89c2877d8fc724b7a821f9d4c083403",
	"adr/trial3": "7f719af064cd520175a8bcdbc891bf014e53d3d8d07f43d5b264407fa13e2efc",
	"adr/trial4": "9ae09d9d7f9eef047204bbc12e2866bc8da1672cab977e98f16206a3c4e3ea28",
	"adr/trial5": "7332823525fdefc1a0668f0f1c7732e03683207fd54d8e7d6d690cfd8be52809",
}

// TestIndexedSelectionEquivalence pins candidate selection at the
// policy level: on randomized namespaces (atime ties, tombstones from
// churn, a re-owned path), with and without fault injection, two
// purge triggers per policy must reproduce the committed digest of
// their reports — victim sequences, group accounting, fault outcomes —
// and of the post-purge namespace. The first digests were recorded
// while a namespace-walk selection path still ran beside the index and
// agreed with it. The fixture's churn later moved from a Walk that
// removed files as it went (which skipped files, depending on the
// prefix tree's walk) to a snapshot; the prefix-tree namespace and the
// record table give the same digests on it. The brute-force model in
// vfs/index_test.go checks the index's selection contract itself.
func TestIndexedSelectionEquivalence(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		base, ranks := randomFS(rng, 6, 300)
		reserved := vfs.NewReservedSet()
		reserved.Add("/scratch/u1/d3")
		reserved.Add("/scratch/u2/d0")
		var total int64 = base.TotalBytes()

		faultCfg := faults.Config{Seed: uint64(trial + 1), UnlinkFailProb: 0.2, ScanInterruptProb: 0.3}
		if trial%2 == 0 {
			faultCfg = faults.Config{} // faults off
		}
		injector := func() FaultInjector {
			if faultCfg.UnlinkFailProb == 0 {
				return nil
			}
			return faults.New(faultCfg)
		}
		check := func(t *testing.T, got string) {
			t.Helper()
			if want := selectionGolden[strings.TrimPrefix(t.Name(), "TestIndexedSelectionEquivalence/")]; got != want {
				t.Errorf("digest %s, golden %s", got, want)
			}
		}

		t.Run(fmt.Sprintf("flt/trial%d", trial), func(t *testing.T) {
			fs := base.Clone()
			f := &FLT{
				Lifetime:       timeutil.Days(90),
				Reserved:       reserved,
				CollectVictims: true,
				Faults:         injector(),
			}
			// Two triggers: failed unlinks from the first must stay
			// candidates for the second.
			reps := []*Report{f.Purge(fs, ranks, tc), f.Purge(fs, ranks, tc.Add(timeutil.Week))}
			check(t, selectionDigest(t, reps, fs))
		})

		t.Run(fmt.Sprintf("adr/trial%d", trial), func(t *testing.T) {
			fs := base.Clone()
			adr, err := NewActiveDR(Config{
				Lifetime:          timeutil.Days(90),
				Capacity:          total,
				TargetUtilization: 0.5,
				MinLifetime:       timeutil.Week,
				Reserved:          reserved,
				CollectVictims:    true,
				Faults:            injector(),
			})
			if err != nil {
				t.Fatal(err)
			}
			reps := []*Report{adr.Purge(fs, ranks, tc), adr.Purge(fs, ranks, tc.Add(timeutil.Week))}
			check(t, selectionDigest(t, reps, fs))
		})
	}
}

// TestOrderUsersDeterministic pins the satellite fix: equal-rank users
// (both ranks zero is the common case for inactive groups) must scan
// in ascending UserID order no matter how the input list is permuted.
func TestOrderUsersDeterministic(t *testing.T) {
	adr, err := NewActiveDR(Config{Lifetime: timeutil.Days(90)})
	if err != nil {
		t.Fatal(err)
	}
	ranks := make([]activeness.Rank, 10) // all both-inactive, all equal
	users := []trace.UserID{7, 3, 9, 0, 5, 1}
	perm := []trace.UserID{1, 9, 5, 7, 0, 3}
	for _, order := range []ScanOrder{ScanOrderGroups, ScanOrderMergedByOutcome} {
		adr.cfg.Order = order
		a := adr.orderUsers(users, ranks)
		b := adr.orderUsers(perm, ranks)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("order %v: scan sequence depends on input permutation:\n%v\n%v", order, a, b)
		}
		for _, phase := range a {
			for i := 1; i < len(phase); i++ {
				if phase[i-1].id >= phase[i].id {
					t.Errorf("order %v: equal-rank users not ascending by id: %v", order, phase)
				}
			}
		}
	}
}
