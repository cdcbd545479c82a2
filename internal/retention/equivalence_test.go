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
	// different owner.
	i := 0
	fs.Walk(func(path string, m vfs.FileMeta) bool {
		switch i++; i % 11 {
		case 0:
			fs.Touch(path, tc.Add(-timeutil.Days(rng.Intn(100))))
		case 5:
			fs.Remove(path)
		}
		return true
	})
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
	"flt/trial0": "b90cfbcdf7a9c7a14dd108381367430c2c7db23453837c85827be5bb659fecf2",
	"flt/trial1": "d96b3ba6963ee2fff1aa0aceb64c216910ec2b5d25823ee2d542748fdec3d1e5",
	"flt/trial2": "9864c4ee2b6a5d60e0d5d71ee5ffacc2fe762bfc3ca7592673bd7ea0a1052f44",
	"flt/trial3": "171e76eb078282d7c68990b022578db7b546963cc1fd6395714692ad48538487",
	"flt/trial4": "bb83cc6a7774c0b3b7b7253143cefb28666405e0f21615fb93344aeee7eda7f9",
	"flt/trial5": "fc4a6593cf807af95a47080fffda2a7e57c834e8c0534933145002ca799b84e9",
	"adr/trial0": "d47b30837eb776a8db3d9f2995c67c83bfa82e17b852f3b14ee08687a2d85fe4",
	"adr/trial1": "e7f3acb7f4d380f632b02fcf761d6722a419af2b32317d974e14aafa63ad2af7",
	"adr/trial2": "676da361a6a3665156ac182a0e892c79edddb29ef2fd779fc51582fc08b889eb",
	"adr/trial3": "c1d024c400b54d172e3d1c61373233836a72794c8560e53fc1964302f2f7871c",
	"adr/trial4": "ccf8490632c31450a3c51ef67b288bb8798edcbd66d2d030666ec010ff5454b0",
	"adr/trial5": "710d3bb98ee1492580068e3bda1c28b822e3ce2ec90092511fcd768dcb33c476",
}

// TestIndexedSelectionEquivalence pins candidate selection at the
// policy level: on randomized namespaces (atime ties, tombstones from
// churn, a re-owned path), with and without fault injection, two
// purge triggers per policy must reproduce the committed digest of
// their reports — victim sequences, group accounting, fault outcomes —
// and of the post-purge namespace. The digests were recorded while a
// namespace-walk selection path still ran beside the index and agreed
// with it; the brute-force model in vfs/index_test.go checks the
// index's selection contract itself.
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
