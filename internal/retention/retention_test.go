package retention

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"activedr/internal/activeness"
	"activedr/internal/randx"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

var tc = timeutil.Date(2016, time.August, 23)

// ranked builds a rank with data flags set.
func ranked(op, oc float64) activeness.Rank {
	return activeness.Rank{Op: op, Oc: oc, HasOp: true, HasOc: true}
}

// addFile inserts a file with the given age in days.
func addFile(fsys *vfs.FS, path string, u trace.UserID, size int64, ageDays int) {
	err := fsys.Insert(path, vfs.FileMeta{
		User: u, Size: size, Stripes: 1,
		ATime: tc.Add(-timeutil.Days(ageDays)),
	})
	if err != nil {
		panic(err)
	}
}

func TestFLTPurgesStaleKeepsFresh(t *testing.T) {
	fsys := vfs.New()
	addFile(fsys, "/u/a/stale", 0, 100, 120)
	addFile(fsys, "/u/a/fresh", 0, 200, 10)
	addFile(fsys, "/u/a/boundary", 0, 50, 90) // age == lifetime: retained
	f := &FLT{Lifetime: timeutil.Days(90)}
	rep := f.Purge(fsys, nil, tc)
	if rep.PurgedFiles != 1 || rep.PurgedBytes != 100 {
		t.Fatalf("purged %d files / %d bytes, want 1/100", rep.PurgedFiles, rep.PurgedBytes)
	}
	if fsys.Contains("/u/a/stale") {
		t.Error("stale file survived")
	}
	if !fsys.Contains("/u/a/fresh") || !fsys.Contains("/u/a/boundary") {
		t.Error("fresh or boundary file purged")
	}
	if rep.FilesBefore != 3 || rep.BytesBefore != 350 {
		t.Errorf("before-counts wrong: %+v", rep)
	}
	if rep.RetainedFiles() != 2 || rep.RetainedBytes() != 250 {
		t.Errorf("retained wrong: %d files %d bytes", rep.RetainedFiles(), rep.RetainedBytes())
	}
	if !rep.TargetReached {
		t.Error("FLT without target must report reached")
	}
	if rep.Policy != "FLT-90d" {
		t.Errorf("Policy = %q", rep.Policy)
	}
}

func TestFLTRespectsReservations(t *testing.T) {
	fsys := vfs.New()
	addFile(fsys, "/u/a/keep/old1", 0, 100, 400)
	addFile(fsys, "/u/a/other", 0, 100, 400)
	res := vfs.NewReservedSet()
	res.Add("/u/a/keep")
	f := &FLT{Lifetime: timeutil.Days(90), Reserved: res}
	rep := f.Purge(fsys, nil, tc)
	if !fsys.Contains("/u/a/keep/old1") {
		t.Error("reserved file purged")
	}
	if fsys.Contains("/u/a/other") {
		t.Error("unreserved stale file survived")
	}
	if rep.SkippedExempt != 1 {
		t.Errorf("SkippedExempt = %d", rep.SkippedExempt)
	}
}

func TestFLTGroupAttribution(t *testing.T) {
	fsys := vfs.New()
	addFile(fsys, "/u/a/x", 0, 100, 200) // both active user
	addFile(fsys, "/u/b/y", 1, 300, 200) // inactive user
	ranks := []activeness.Rank{ranked(2, 2), ranked(0, 0)}
	f := &FLT{Lifetime: timeutil.Days(90)}
	rep := f.Purge(fsys, ranks, tc)
	ba := rep.Groups[activeness.BothActive]
	bi := rep.Groups[activeness.BothInactive]
	if ba.PurgedFiles != 1 || ba.PurgedBytes != 100 || ba.AffectedUsers != 1 || ba.Users != 1 {
		t.Errorf("both-active stats = %+v", ba)
	}
	if bi.PurgedFiles != 1 || bi.PurgedBytes != 300 || bi.AffectedUsers != 1 {
		t.Errorf("both-inactive stats = %+v", bi)
	}
	// FLT ignores activeness: both users lose their stale files.
}

func newActiveDR(t *testing.T, cfg Config) *ActiveDR {
	t.Helper()
	a, err := NewActiveDR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestActiveDRNoPurgeBelowTarget(t *testing.T) {
	fsys := vfs.New()
	addFile(fsys, "/u/a/old", 0, 100, 500)
	a := newActiveDR(t, Config{
		Lifetime:          timeutil.Days(90),
		Capacity:          1000,
		TargetUtilization: 0.5, // target usage 500B; used is 100B
	})
	rep := a.Purge(fsys, []activeness.Rank{ranked(0, 0)}, tc)
	if rep.PurgedFiles != 0 {
		t.Fatalf("purged %d files though usage below target", rep.PurgedFiles)
	}
	if !rep.TargetReached {
		t.Error("should report reached when already below target")
	}
	if !fsys.Contains("/u/a/old") {
		t.Error("file purged")
	}
}

func TestActiveDRPurgesInactiveFirstAndStopsAtTarget(t *testing.T) {
	fsys := vfs.New()
	// Inactive user holds plenty of stale bytes; active user also has
	// stale files (stale even under their extended lifetime).
	for i := 0; i < 8; i++ {
		addFile(fsys, fmt.Sprintf("/u/idle/f%d", i), 1, 1000, 200)
	}
	addFile(fsys, "/u/busy/f", 0, 1000, 2000)
	ranks := []activeness.Rank{ranked(3, 2), ranked(0.1, 0.1)}
	a := newActiveDR(t, Config{
		Lifetime:          timeutil.Days(90),
		Capacity:          9000,
		TargetUtilization: 0.5, // used 9000 → free 4500 → 5 idle files
	})
	rep := a.Purge(fsys, ranks, tc)
	if !rep.TargetReached {
		t.Fatalf("target not reached: %+v", rep)
	}
	if rep.PurgedBytes != 5000 {
		t.Fatalf("purged %d bytes, want 5000 (stop at target)", rep.PurgedBytes)
	}
	if fsys.Contains("/u/busy/f") == false {
		t.Error("active user's file purged though target met by inactive files")
	}
	bi := rep.Groups[activeness.BothInactive]
	if bi.PurgedFiles != 5 || bi.AffectedUsers != 1 {
		t.Errorf("both-inactive stats = %+v", bi)
	}
	if rep.Groups[activeness.BothActive].PurgedFiles != 0 {
		t.Error("both-active purged before target")
	}
}

func TestActiveDRRewardsActiveUsersWithLongerLifetime(t *testing.T) {
	fsys := vfs.New()
	// 120-day-old file: stale under FLT-90 but fresh under the active
	// user's 90·2=180-day adjusted lifetime.
	addFile(fsys, "/u/busy/data", 0, 100, 120)
	addFile(fsys, "/u/idle/data", 1, 100, 120)
	ranks := []activeness.Rank{ranked(2, 1), ranked(0.5, 0.5)}
	a := newActiveDR(t, Config{Lifetime: timeutil.Days(90)}) // no target
	rep := a.Purge(fsys, ranks, tc)
	if !fsys.Contains("/u/busy/data") {
		t.Error("active user's file purged despite extended lifetime")
	}
	if fsys.Contains("/u/idle/data") {
		t.Error("inactive user's stale file survived")
	}
	if rep.PurgedFiles != 1 {
		t.Errorf("purged %d files", rep.PurgedFiles)
	}
}

func TestActiveDRRetrospectivePassesCutLifetimes(t *testing.T) {
	fsys := vfs.New()
	// An operation-active user (ε = 90·1.2 = 108d) with files aged
	// 100 days: fresh on the first pass, purged once a retrospective
	// pass decays the reward to 86.4d.
	addFile(fsys, "/u/op/a", 0, 600, 100)
	addFile(fsys, "/u/op/b", 0, 600, 100)
	a := newActiveDR(t, Config{
		Lifetime:          timeutil.Days(90),
		Capacity:          1200,
		TargetUtilization: 0.5, // free 600
	})
	rep := a.Purge(fsys, []activeness.Rank{ranked(1.2, 0.5)}, tc)
	if !rep.TargetReached {
		t.Fatalf("target not reached: %+v", rep)
	}
	if rep.PurgedFiles != 1 {
		t.Fatalf("purged %d files, want exactly 1 (stop at target)", rep.PurgedFiles)
	}
	if rep.RetroPasses < 1 {
		t.Error("no retrospective pass recorded")
	}
}

func TestActiveDRUnreachableTarget(t *testing.T) {
	fsys := vfs.New()
	// A rank-zero user's adjusted lifetime collapses to 0, but the
	// MinLifetime hygiene floor protects the day-old file, so nothing
	// can be purged and the target stays unreached.
	addFile(fsys, "/u/a/f", 0, 100, 1)
	a := newActiveDR(t, Config{
		Lifetime:          timeutil.Days(90),
		Capacity:          100,
		TargetUtilization: 0.5,
		MinLifetime:       timeutil.Days(7),
	})
	rep := a.Purge(fsys, []activeness.Rank{ranked(0, 0)}, tc)
	if rep.TargetReached {
		t.Fatal("reported reached though nothing could be purged")
	}
	if rep.PurgedFiles != 0 {
		t.Fatalf("purged %d", rep.PurgedFiles)
	}
}

func TestActiveDRExemption(t *testing.T) {
	fsys := vfs.New()
	addFile(fsys, "/u/idle/keep.dat", 0, 500, 400)
	addFile(fsys, "/u/idle/rest.dat", 0, 500, 400)
	res := vfs.NewReservedSet()
	res.Add("/u/idle/keep.dat")
	a := newActiveDR(t, Config{Lifetime: timeutil.Days(90), Reserved: res})
	rep := a.Purge(fsys, []activeness.Rank{ranked(0, 0)}, tc)
	if !fsys.Contains("/u/idle/keep.dat") {
		t.Error("reserved file purged")
	}
	if fsys.Contains("/u/idle/rest.dat") {
		t.Error("unreserved file survived")
	}
	if rep.SkippedExempt != 1 {
		t.Errorf("SkippedExempt = %d", rep.SkippedExempt)
	}
}

func TestActiveDRStrictEq7Ablation(t *testing.T) {
	fsys := vfs.New()
	// Operation-active user with zero outcome rank: under strict
	// Eq. (7) ε = 90·2·0 = 0, so even a fresh file purges.
	addFile(fsys, "/u/op/fresh", 0, 100, 1)
	ranks := []activeness.Rank{ranked(2, 0)}
	strict := newActiveDR(t, Config{Lifetime: timeutil.Days(90), StrictEq7: true})
	rep := strict.Purge(fsys, ranks, tc)
	if rep.PurgedFiles != 1 {
		t.Fatalf("strict Eq7 purged %d files, want 1", rep.PurgedFiles)
	}
	// Default (floored) multiplier keeps it.
	fsys2 := vfs.New()
	addFile(fsys2, "/u/op/fresh", 0, 100, 1)
	def := newActiveDR(t, Config{Lifetime: timeutil.Days(90)})
	rep2 := def.Purge(fsys2, ranks, tc)
	if rep2.PurgedFiles != 0 {
		t.Fatalf("default multiplier purged %d files, want 0", rep2.PurgedFiles)
	}
}

// With uniform new-user ranks and no purge target, ActiveDR must
// purge exactly the same set FLT does: every file older than d.
func TestActiveDREquivalentToFLTWithUniformRanks(t *testing.T) {
	src := randx.New(99)
	fltFS := vfs.New()
	for i := 0; i < 300; i++ {
		addFile(fltFS, fmt.Sprintf("/u/u%02d/f%03d", i%10, i), trace.UserID(i%10), int64(1+src.Intn(1000)), src.Intn(365))
	}
	adrFS := fltFS.Clone()
	ranks := make([]activeness.Rank, 10)
	for i := range ranks {
		ranks[i] = activeness.NewUserRank()
	}
	fltRep := (&FLT{Lifetime: timeutil.Days(90)}).Purge(fltFS, ranks, tc)
	adr := newActiveDR(t, Config{Lifetime: timeutil.Days(90)})
	adrRep := adr.Purge(adrFS, ranks, tc)
	if fltRep.PurgedFiles != adrRep.PurgedFiles || fltRep.PurgedBytes != adrRep.PurgedBytes {
		t.Fatalf("FLT purged %d/%d, ActiveDR purged %d/%d",
			fltRep.PurgedFiles, fltRep.PurgedBytes, adrRep.PurgedFiles, adrRep.PurgedBytes)
	}
	if fltFS.Count() != adrFS.Count() || fltFS.TotalBytes() != adrFS.TotalBytes() {
		t.Fatal("final states differ")
	}
}

// Property: purged + retained is conserved for both policies, per
// group and in total.
func TestConservationProperty(t *testing.T) {
	f := func(seed uint64, targetPct uint8) bool {
		src := randx.New(seed)
		fsys := vfs.New()
		nUsers := 1 + src.Intn(8)
		ranks := make([]activeness.Rank, nUsers)
		for i := range ranks {
			ranks[i] = ranked(src.Float64()*3, src.Float64()*3)
		}
		n := 1 + src.Intn(100)
		for i := 0; i < n; i++ {
			addFile(fsys, fmt.Sprintf("/u/u%d/f%d", src.Intn(nUsers), i),
				trace.UserID(src.Intn(nUsers)), int64(1+src.Intn(500)), src.Intn(400))
		}
		before := fsys.TotalBytes()
		filesBefore := int64(fsys.Count())
		cfg := Config{Lifetime: timeutil.Days(90)}
		if targetPct%2 == 0 {
			cfg.Capacity = before
			cfg.TargetUtilization = float64(targetPct%100) / 100
		}
		a, err := NewActiveDR(cfg)
		if err != nil {
			return false
		}
		rep := a.Purge(fsys, ranks, tc)
		if rep.BytesBefore != before || rep.FilesBefore != filesBefore {
			return false
		}
		if rep.RetainedBytes() != fsys.TotalBytes() || rep.RetainedFiles() != int64(fsys.Count()) {
			return false
		}
		var gb, gf, pb, pf int64
		for _, g := range rep.Groups {
			gb += g.BytesBefore
			gf += g.FilesBefore
			pb += g.PurgedBytes
			pf += g.PurgedFiles
			if g.PurgedBytes > g.BytesBefore || g.PurgedFiles > g.FilesBefore {
				return false
			}
		}
		return gb == before && gf == filesBefore && pb == rep.PurgedBytes && pf == rep.PurgedFiles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestScanOrderMergedByOutcome(t *testing.T) {
	fsys := vfs.New()
	// Op-active user with LOW outcome rank vs both-active user with
	// high ranks: merged order purges the op-only user first.
	addFile(fsys, "/u/oponly/f", 0, 500, 2000)
	addFile(fsys, "/u/both/f", 1, 500, 2000)
	// Φ_op = 1 keeps the op-only user's adjusted lifetime at d (so the
	// 2000-day-old file is stale) while still classifying as
	// operation-active.
	ranks := []activeness.Rank{ranked(1, 0.1), ranked(2, 2)}
	a := newActiveDR(t, Config{
		Lifetime:          timeutil.Days(90),
		Capacity:          1000,
		TargetUtilization: 0.5, // free 500: exactly one file
		Order:             ScanOrderMergedByOutcome,
	})
	rep := a.Purge(fsys, ranks, tc)
	if !rep.TargetReached || rep.PurgedFiles != 1 {
		t.Fatalf("report: %+v", rep)
	}
	if fsys.Contains("/u/oponly/f") || !fsys.Contains("/u/both/f") {
		t.Error("merged-by-outcome order not honored")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Lifetime: -timeutil.Days(1)},
		{Lifetime: timeutil.Days(90), TargetUtilization: 1.5, Capacity: 10},
		{Lifetime: timeutil.Days(90), TargetUtilization: 0.5}, // no capacity
		{Lifetime: timeutil.Days(90), RetroPasses: -1},
		{Lifetime: timeutil.Days(90), RetroDecay: 1.5},
	}
	for i, cfg := range bad {
		if _, err := NewActiveDR(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	a, err := NewActiveDR(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := a.Config()
	if cfg.Lifetime != timeutil.Days(90) || cfg.RetroPasses != 5 || cfg.RetroDecay != 0.8 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
}

func TestLifetimeOverflowClamped(t *testing.T) {
	a := newActiveDR(t, Config{Lifetime: timeutil.Days(90)})
	eps := a.lifetime(ranked(math.MaxFloat64, math.MaxFloat64), 0)
	if eps <= 0 {
		t.Fatalf("overflowed lifetime: %v", eps)
	}
	fsys := vfs.New()
	addFile(fsys, "/u/super/ancient", 0, 100, 100000)
	rep := a.Purge(fsys, []activeness.Rank{ranked(math.MaxFloat64, math.MaxFloat64)}, tc)
	if rep.PurgedFiles != 0 {
		t.Error("hyper-active user's file purged")
	}
}

func TestReportString(t *testing.T) {
	rep := &Report{Policy: "FLT-90d", At: tc, PurgedFiles: 3, PurgedBytes: 2e9, FilesBefore: 10, TargetReached: true}
	s := rep.String()
	if s == "" || len(s) < 10 {
		t.Fatalf("String = %q", s)
	}
}

// Property: a purge pass is idempotent — running the same policy
// again at the same instant purges nothing further.
func TestPurgeIdempotent(t *testing.T) {
	f := func(seed uint64) bool {
		src := randx.New(seed)
		fsys := vfs.New()
		nUsers := 1 + src.Intn(6)
		ranks := make([]activeness.Rank, nUsers)
		for i := range ranks {
			ranks[i] = ranked(src.Float64()*2, src.Float64()*2)
		}
		for i := 0; i < 60; i++ {
			addFile(fsys, fmt.Sprintf("/u/u%d/f%d", src.Intn(nUsers), i),
				trace.UserID(src.Intn(nUsers)), int64(1+src.Intn(100)), src.Intn(300))
		}
		adr, err := NewActiveDR(Config{Lifetime: timeutil.Days(90)})
		if err != nil {
			return false
		}
		adr.Purge(fsys, ranks, tc)
		second := adr.Purge(fsys, ranks, tc)
		if second.PurgedFiles != 0 {
			return false
		}
		flt := &FLT{Lifetime: timeutil.Days(90)}
		flt.Purge(fsys, ranks, tc)
		return flt.Purge(fsys, ranks, tc).PurgedFiles == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: FLT purges monotonically less as the lifetime grows.
func TestFLTLifetimeMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		src := randx.New(seed)
		build := func() *vfs.FS {
			s2 := randx.New(seed + 1)
			fsys := vfs.New()
			for i := 0; i < 80; i++ {
				addFile(fsys, fmt.Sprintf("/u/u%d/f%d", s2.Intn(4), i),
					trace.UserID(s2.Intn(4)), int64(1+s2.Intn(100)), s2.Intn(400))
			}
			return fsys
		}
		_ = src
		var prev int64 = -1
		for _, days := range []int{7, 30, 60, 90, 120} {
			fsys := build()
			rep := (&FLT{Lifetime: timeutil.Days(days)}).Purge(fsys, nil, tc)
			if prev >= 0 && rep.PurgedFiles > prev {
				return false
			}
			prev = rep.PurgedFiles
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: reservations never change what happens to unreserved
// files, and reserved files always survive.
func TestExemptionIsolation(t *testing.T) {
	f := func(seed uint64) bool {
		src := randx.New(seed)
		var reservedPaths, freePaths []string
		build := func(withReservation bool) (*vfs.FS, *vfs.ReservedSet) {
			s2 := randx.New(seed + 7)
			fsys := vfs.New()
			for i := 0; i < 50; i++ {
				p := fmt.Sprintf("/u/u%d/f%d", s2.Intn(3), i)
				addFile(fsys, p, trace.UserID(s2.Intn(3)), int64(1+s2.Intn(100)), s2.Intn(400))
				if i%5 == 0 {
					reservedPaths = append(reservedPaths, p)
				} else {
					freePaths = append(freePaths, p)
				}
			}
			if !withReservation {
				return fsys, nil
			}
			rs := vfs.NewReservedSet()
			for _, p := range reservedPaths {
				rs.Add(p)
			}
			return fsys, rs
		}
		reservedPaths, freePaths = nil, nil
		plainFS, _ := build(false)
		reservedPaths, freePaths = nil, nil
		resFS, rs := build(true)
		flt := &FLT{Lifetime: timeutil.Days(90)}
		flt.Purge(plainFS, nil, tc)
		fltR := &FLT{Lifetime: timeutil.Days(90), Reserved: rs}
		fltR.Purge(resFS, nil, tc)
		for _, p := range reservedPaths {
			if !resFS.Contains(p) {
				return false
			}
		}
		for _, p := range freePaths {
			if plainFS.Contains(p) != resFS.Contains(p) {
				return false
			}
		}
		_ = src
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanIsDryRun(t *testing.T) {
	fsys := vfs.New()
	addFile(fsys, "/u/a/stale1", 0, 100, 200)
	addFile(fsys, "/u/a/stale2", 0, 100, 150)
	addFile(fsys, "/u/a/fresh", 0, 100, 10)
	before := fsys.Count()
	rep := Plan(&FLT{Lifetime: timeutil.Days(90)}, fsys, nil, tc)
	if fsys.Count() != before {
		t.Fatal("Plan mutated the input file system")
	}
	if len(rep.Victims) != 2 || rep.PurgedFiles != 2 {
		t.Fatalf("victims = %v, purged = %d", rep.Victims, rep.PurgedFiles)
	}
	for _, v := range rep.Victims {
		if !fsys.Contains(v) {
			t.Fatalf("victim %q already gone from the live FS", v)
		}
	}
	// ActiveDR plans too, in scan order. The MinLifetime floor keeps
	// the 10-day-old file out of the rank-zero user's purge set.
	adr := newActiveDR(t, Config{Lifetime: timeutil.Days(90), MinLifetime: timeutil.Days(30)})
	rep2 := Plan(adr, fsys, []activeness.Rank{ranked(0, 0)}, tc)
	if len(rep2.Victims) != 2 {
		t.Fatalf("ActiveDR victims = %v", rep2.Victims)
	}
	if fsys.Count() != before {
		t.Fatal("ActiveDR Plan mutated the input")
	}
	// Plan does not leave the collect flag set.
	real := adr.Purge(fsys, []activeness.Rank{ranked(0, 0)}, tc)
	if real.Victims != nil {
		t.Fatal("collect flag leaked out of Plan")
	}
}

func TestCollectVictimsOffByDefault(t *testing.T) {
	fsys := vfs.New()
	addFile(fsys, "/u/a/stale", 0, 100, 200)
	rep := (&FLT{Lifetime: timeutil.Days(90)}).Purge(fsys, nil, tc)
	if rep.Victims != nil {
		t.Fatal("victims collected without the knob")
	}
}
