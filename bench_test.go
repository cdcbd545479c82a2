// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §2 for the index), plus ablations of the
// design choices and micro-benchmarks of the hot substrates.
//
//	go test -bench=. -benchmem
//
// Figure benchmarks build a fresh Suite per iteration over a shared
// dataset, so each iteration measures the full regeneration cost;
// headline quantities are attached as custom metrics.
package activedr_test

import (
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"activedr/internal/activeness"
	"activedr/internal/experiments"
	"activedr/internal/randx"
	"activedr/internal/retention"
	"activedr/internal/sim"
	"activedr/internal/synth"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

// benchUsers keeps full-year replays fast enough for -bench cycles
// while preserving the workload's shape.
const benchUsers = 400

var (
	benchOnce sync.Once
	benchDS   *trace.Dataset
	snapOnce  sync.Once
	snapPath  string
)

func benchDataset(b *testing.B) *trace.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		ds, err := synth.Generate(synth.Config{Seed: 9, Users: benchUsers})
		if err != nil {
			b.Fatal(err)
		}
		benchDS = ds
	})
	return benchDS
}

func newSuite(b *testing.B) *experiments.Suite {
	return experiments.NewSuite(benchDataset(b))
}

// --- one benchmark per table/figure ---

func BenchmarkTable1(b *testing.B) {
	s := newSuite(b)
	for i := 0; i < b.N; i++ {
		s.Table1().Render(io.Discard)
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite(b)
		r, err := s.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
		b.ReportMetric(float64(r.DaysOver5Pct), "days>5%")
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite(b)
		r, err := s.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
		b.ReportMetric(100*r.Cells[3].Matrix.Share(activeness.BothInactive), "inactive-%@90d")
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite(b)
		r, err := s.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
		b.ReportMetric(100*r.OverallReduction, "miss-reduction-%")
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite(b)
		r, err := s.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite(b)
		r, err := s.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
		b.ReportMetric(100*r.Boxes[activeness.BothActive].Mean, "BA-mean-reduction-%")
	}
}

// BenchmarkFigure9 covers Figures 9–11 and Tables 4–6: they share the
// period-length sweep.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite(b)
		sweep, err := s.RetentionSweep()
		if err != nil {
			b.Fatal(err)
		}
		sweep.Figure9(io.Discard)
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite(b)
		sweep, err := s.RetentionSweep()
		if err != nil {
			b.Fatal(err)
		}
		sweep.Figure10(io.Discard)
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite(b)
		sweep, err := s.RetentionSweep()
		if err != nil {
			b.Fatal(err)
		}
		sweep.Figure11(io.Discard)
	}
}

func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite(b)
		r, err := s.Figure12(4)
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

// --- Figure 12 component benchmarks ---

// BenchmarkTraceLoad measures dataset parsing (Figure 12a).
func BenchmarkTraceLoad(b *testing.B) {
	ds := benchDataset(b)
	dir := filepath.Join(b.TempDir(), "data")
	if err := trace.WriteDataset(dir, ds); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.LoadDataset(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// ingestDir lazily writes the benchmark dataset once for the load
// benchmarks below.
var (
	ingestOnce sync.Once
	ingestPath string
)

func ingestDataset(b *testing.B) string {
	b.Helper()
	ds := benchDataset(b)
	ingestOnce.Do(func() {
		dir, err := os.MkdirTemp("", "ingest-bench")
		if err != nil {
			b.Fatal(err)
		}
		if err := trace.WriteDataset(dir, ds); err != nil {
			b.Fatal(err)
		}
		ingestPath = dir
	})
	return ingestPath
}

// benchLoadDataset measures full-dataset ingestion on one read path.
func benchLoadDataset(b *testing.B, opts trace.ReadOptions) {
	dir := ingestDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := trace.LoadDatasetWith(dir, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadDataset measures the default pipelined ingestion: file
// fan-out, block-pipelined decoding, zero-allocation row parsing.
func BenchmarkLoadDataset(b *testing.B) {
	benchLoadDataset(b, trace.ReadOptions{})
}

// BenchmarkLoadDatasetSequential is the same load on the
// single-goroutine fallback path (ReadOptions.Sequential), the A/B
// baseline for the pipeline speedup.
func BenchmarkLoadDatasetSequential(b *testing.B) {
	benchLoadDataset(b, trace.ReadOptions{Sequential: true})
}

// BenchmarkWriteDataset measures full-dataset persistence: one writer
// goroutine per trace file, strconv.Append row encoding.
func BenchmarkWriteDataset(b *testing.B) {
	ds := benchDataset(b)
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := trace.WriteDataset(filepath.Join(dir, "out"), ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkActivenessEval measures ranking the whole population
// (Figure 12b).
func BenchmarkActivenessEval(b *testing.B) {
	ds := benchDataset(b)
	ev := activeness.NewEvaluator(timeutil.Days(90))
	jt := ev.AddType("job", activeness.Operation)
	pt := ev.AddType("pub", activeness.Outcome)
	ev.RecordJobs(jt, ds.Jobs)
	ev.RecordPublications(pt, ds.Publications)
	tc := experiments.CaptureDate
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.EvaluateAll(len(ds.Users), tc)
	}
}

// BenchmarkPurgeDecision measures one full ActiveDR purge pass over
// the snapshot (Figure 12b).
func BenchmarkPurgeDecision(b *testing.B) {
	ds := benchDataset(b)
	base, err := vfs.FromSnapshot(&ds.Snapshot)
	if err != nil {
		b.Fatal(err)
	}
	ev := activeness.NewEvaluator(timeutil.Days(90))
	jt := ev.AddType("job", activeness.Operation)
	ev.RecordJobs(jt, ds.Jobs)
	ranks := ev.EvaluateAll(len(ds.Users), experiments.CaptureDate)
	adr, err := retention.NewActiveDR(retention.Config{
		Lifetime:          timeutil.Days(90),
		Capacity:          base.TotalBytes(),
		TargetUtilization: 0.5,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fsys := base.Clone()
		b.StartTimer()
		adr.Purge(fsys, ranks, experiments.CaptureDate)
	}
}

// BenchmarkSnapshotScan measures a full lexicographic namespace walk
// (Figure 12c/d).
func BenchmarkSnapshotScan(b *testing.B) {
	ds := benchDataset(b)
	fsys, err := vfs.FromSnapshot(&ds.Snapshot)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var bytes int64
		fsys.Walk(func(_ string, m vfs.FileMeta) bool {
			bytes += m.Size
			return true
		})
		if bytes == 0 {
			b.Fatal("empty walk")
		}
	}
}

// --- full-year replay benchmarks (the headline hot path) ---

// replayPolicy replays the whole evaluation year under one policy,
// reporting allocations: this is the purge-trigger hot path the
// incremental candidate index optimizes.
func replayPolicy(b *testing.B, build func(em *sim.Emulator) retention.Policy) {
	ds := benchDataset(b)
	em, err := sim.New(ds, sim.Config{TargetUtilization: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var misses int64
	for i := 0; i < b.N; i++ {
		res, err := em.Run(build(em))
		if err != nil {
			b.Fatal(err)
		}
		misses = res.TotalMisses
	}
	b.ReportMetric(float64(misses), "misses")
}

// BenchmarkReplayFLT measures the full-year FLT replay.
func BenchmarkReplayFLT(b *testing.B) {
	replayPolicy(b, func(em *sim.Emulator) retention.Policy { return em.NewFLT() })
}

// BenchmarkReplayActiveDR measures the full-year ActiveDR replay.
func BenchmarkReplayActiveDR(b *testing.B) {
	replayPolicy(b, func(em *sim.Emulator) retention.Policy {
		adr, err := em.NewActiveDR()
		if err != nil {
			b.Fatal(err)
		}
		return adr
	})
}

// --- multiplexed sweep benchmarks (DESIGN.md §13) ---

// sweep4Lanes is the 4-policy lifetime sweep both sweep benchmarks
// evaluate: the paper's FLT lifetime grid on one shared access stream.
func sweep4Lanes() []sim.LaneSpec {
	lanes := make([]sim.LaneSpec, 0, 4)
	for _, days := range []int{7, 30, 60, 90} {
		lanes = append(lanes, sim.LaneSpec{
			Policy: sim.PolicyFLT,
			Config: sim.Config{Lifetime: timeutil.Days(days)},
		})
	}
	return lanes
}

// BenchmarkSweep4Sequential replays the 4-policy sweep the historical
// way: four independent full-year replays. Emulators (snapshot load,
// activity indexing) are prebuilt, so the timer sees only the replay
// loops — the quantity the multiplexed runner collapses.
func BenchmarkSweep4Sequential(b *testing.B) {
	ds := benchDataset(b)
	lanes := sweep4Lanes()
	ems := make([]*sim.Emulator, len(lanes))
	for i, l := range lanes {
		em, err := sim.New(ds, l.Config)
		if err != nil {
			b.Fatal(err)
		}
		ems[i] = em
	}
	b.ReportAllocs()
	b.ResetTimer()
	var misses int64
	for i := 0; i < b.N; i++ {
		misses = 0
		for _, em := range ems {
			res, err := em.Run(em.NewFLT())
			if err != nil {
				b.Fatal(err)
			}
			misses += res.TotalMisses
		}
	}
	b.ReportMetric(float64(misses), "misses")
}

// BenchmarkSweep4Multiplexed is the same sweep in ONE multiplexed pass
// over the shared columnar feed. cmd/bench derives the
// sweep4-speedup metric from this pair; the acceptance bar is >= 3x
// on one core.
func BenchmarkSweep4Multiplexed(b *testing.B) {
	ds := benchDataset(b)
	m, err := sim.NewMultiplexer(ds)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the per-dataset caches (columnar feed, evaluators) the
	// sequential side gets for free via its prebuilt emulators.
	if _, err := m.Run(sweep4Lanes()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var misses int64
	for i := 0; i < b.N; i++ {
		results, err := m.Run(sweep4Lanes())
		if err != nil {
			b.Fatal(err)
		}
		misses = 0
		for _, res := range results {
			misses += res.TotalMisses
		}
	}
	b.ReportMetric(float64(misses), "misses")
	b.ReportMetric(4, "policies/pass")
}

// --- snapfile benchmarks (DESIGN.md §15) ---

// benchSnapfile writes the bench dataset's snapshot as a snapfile
// once per process and returns its path.
func benchSnapfile(b *testing.B) string {
	b.Helper()
	snapOnce.Do(func() {
		dir, err := os.MkdirTemp("", "benchsnap")
		if err != nil {
			b.Fatal(err)
		}
		snapPath = filepath.Join(dir, "fs.snap")
		if err := vfs.WriteSnapfileFromSnapshot(snapPath, &benchDataset(b).Snapshot); err != nil {
			b.Fatal(err)
		}
	})
	return snapPath
}

// BenchmarkSnapshotOpen measures the snapfile's O(1) open: header
// parse and section validation only, no record decoding. This is the
// startup latency that replaces the TSV snapshot re-parse.
func BenchmarkSnapshotOpen(b *testing.B) {
	path := benchSnapfile(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sf, err := vfs.OpenSnapfile(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := sf.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotLoadFS decodes the whole snapfile into a live
// namespace — the eager path a replay takes once per process. Compare
// with BenchmarkVFSInsert, the same tree built from parsed TSV
// entries (which excludes the TSV parse itself, so the snapfile's
// real-world win is larger than the pair suggests).
func BenchmarkSnapshotLoadFS(b *testing.B) {
	path := benchSnapfile(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sf, err := vfs.OpenSnapfile(path)
		if err != nil {
			b.Fatal(err)
		}
		fsys, err := vfs.LoadSnapfileFS(sf)
		if err != nil {
			b.Fatal(err)
		}
		if cerr := sf.Close(); cerr != nil {
			b.Fatal(cerr)
		}
		if fsys.Count() == 0 {
			b.Fatal("empty namespace")
		}
	}
}

// --- ablations of DESIGN.md §3 choices ---

// runComparison replays the year with a custom sim config and reports
// the miss reduction as a metric.
func runComparison(b *testing.B, cfg sim.Config) {
	ds := benchDataset(b)
	for i := 0; i < b.N; i++ {
		em, err := sim.New(ds, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cmp, err := em.RunComparison()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*cmp.MissReduction(), "miss-reduction-%")
	}
}

// BenchmarkAblationBaseline is the reference configuration.
func BenchmarkAblationBaseline(b *testing.B) {
	runComparison(b, sim.Config{TargetUtilization: 0.5})
}

// BenchmarkAblationMergedScanOrder uses the alternative §3.4 reading
// (operation-active groups merged, ordered by outcome rank).
func BenchmarkAblationMergedScanOrder(b *testing.B) {
	runComparison(b, sim.Config{TargetUtilization: 0.5, Order: retention.ScanOrderMergedByOutcome})
}

// BenchmarkAblationStrictEq7 applies the literal Eq. (7) product with
// no inactive-class flooring.
func BenchmarkAblationStrictEq7(b *testing.B) {
	runComparison(b, sim.Config{TargetUtilization: 0.5, StrictEq7: true})
}

// BenchmarkAblationNoTarget disables the purge target: ActiveDR
// purges every stale file like FLT, keeping only the lifetime
// adjustment.
func BenchmarkAblationNoTarget(b *testing.B) {
	runComparison(b, sim.Config{TargetUtilization: 0})
}

// --- substrate micro-benchmarks ---

func BenchmarkVFSInsert(b *testing.B) {
	ds := benchDataset(b)
	entries := ds.Snapshot.Entries
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fsys := vfs.New()
		for j := range entries {
			e := &entries[j]
			if err := fsys.Insert(e.Path, vfs.FileMeta{User: e.User, Size: e.Size, ATime: e.ATime}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(entries)), "files/op")
}

func BenchmarkVFSLookup(b *testing.B) {
	ds := benchDataset(b)
	fsys, err := vfs.FromSnapshot(&ds.Snapshot)
	if err != nil {
		b.Fatal(err)
	}
	paths := make([]string, 0, len(ds.Snapshot.Entries))
	for i := range ds.Snapshot.Entries {
		paths = append(paths, ds.Snapshot.Entries[i].Path)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := paths[i%len(paths)]
		if _, ok := fsys.Lookup(p); !ok {
			b.Fatal("lookup miss")
		}
	}
}

func BenchmarkTypeRank(b *testing.B) {
	src := randx.New(3)
	tc := experiments.CaptureDate
	acts := make([]activeness.Activity, 500)
	for i := range acts {
		acts[i] = activeness.Activity{
			TS:     tc.Add(-timeutil.Duration(500-i) * timeutil.Hour * 10),
			Impact: 1 + src.Float64()*100,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		activeness.TypeRank(acts, tc, timeutil.Days(7))
	}
}

func BenchmarkZipf(b *testing.B) {
	z := randx.NewZipf(randx.New(1), 1.2, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Next()
	}
}
