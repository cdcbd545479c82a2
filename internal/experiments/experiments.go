// Package experiments regenerates every table and figure of the
// paper's evaluation (§4) on the synthetic OLCF-like dataset. Each
// FigureN/TableN entry returns a structured result plus a Render
// method emitting the text analogue of the paper's plot; the repo
// root's bench_test.go and cmd/report drive them. EXPERIMENTS.md
// records measured-vs-paper numbers.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"activedr/internal/activeness"
	"activedr/internal/config"
	"activedr/internal/parallel"
	"activedr/internal/profiling"
	"activedr/internal/report"
	"activedr/internal/retention"
	"activedr/internal/sim"
	"activedr/internal/stats"
	"activedr/internal/synth"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// CaptureDate is the paper's "last weekly metadata snapshot we have",
// captured on Aug 23rd of 2016 — the state Figures 9–11 examine.
var CaptureDate = timeutil.Date(2016, time.August, 23)

// Suite caches the FLT/ActiveDR comparisons the figures share, keyed
// by replay configuration, and fills them through one multiplexer it
// builds on first use. A Suite is not safe for concurrent use.
type Suite struct {
	ds          *trace.Dataset
	mux         *sim.Multiplexer
	comparisons map[sim.Config]*sim.Comparison
}

// NewSuite wraps an existing dataset.
func NewSuite(ds *trace.Dataset) *Suite {
	return &Suite{ds: ds, comparisons: make(map[sim.Config]*sim.Comparison)}
}

// NewSyntheticSuite generates the default dataset at the given user
// scale (0 selects the reference 2,000 users) and wraps it.
func NewSyntheticSuite(users int, seed uint64) (*Suite, error) {
	ds, err := synth.Generate(synth.Config{Seed: seed, Users: users})
	if err != nil {
		return nil, err
	}
	return NewSuite(ds), nil
}

// Dataset exposes the underlying traces.
func (s *Suite) Dataset() *trace.Dataset { return s.ds }

// figureConfig is the replay setting the figures compare at lifetime
// d: the paper's purge target, with the file system captured at the
// capture date for Figures 9–11.
func figureConfig(d timeutil.Duration) sim.Config {
	return sim.Config{
		Lifetime:          d,
		TargetUtilization: config.TargetUtilization,
		CaptureAt:         CaptureDate,
	}
}

// periodConfigs is figureConfig at every period length of the sweep.
func periodConfigs() []sim.Config {
	cfgs := make([]sim.Config, len(config.PeriodLengths))
	for i, d := range config.PeriodLengths {
		cfgs[i] = figureConfig(d)
	}
	return cfgs
}

// compare returns the FLT/ActiveDR comparison of each config, in
// argument order. The configs not cached yet replay together as lane
// pairs of the suite's multiplexer (comparePairs); lanes are
// bit-identical to dedicated replays, so a comparison reads the same
// whichever call filled it. The cache is only ever looked up, never
// iterated, so its order cannot reach the output.
func (s *Suite) compare(cfgs ...sim.Config) ([]*sim.Comparison, error) {
	var need []sim.Config
	for _, cfg := range cfgs {
		if s.comparisons[cfg] == nil && !slices.Contains(need, cfg) {
			need = append(need, cfg)
		}
	}
	if len(need) > 0 {
		if s.mux == nil {
			m, err := sim.NewMultiplexer(s.ds)
			if err != nil {
				return nil, err
			}
			s.mux = m
		}
		cmps, err := comparePairs(s.mux, need)
		if err != nil {
			return nil, err
		}
		for i, cfg := range need {
			s.comparisons[cfg] = cmps[i]
		}
	}
	out := make([]*sim.Comparison, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = s.comparisons[cfg]
	}
	return out, nil
}

// comparison90 is the 90-day comparison Figures 1 and 6–8 plot.
func (s *Suite) comparison90() (*sim.Comparison, error) {
	cmps, err := s.compare(figureConfig(timeutil.Days(90)))
	if err != nil {
		return nil, err
	}
	return cmps[0], nil
}

// comparePairs replays each config as an FLT lane and an ActiveDR
// lane on m, one Multiplexer.Run per 32 configs (the 64-lane group
// limit), and returns the comparisons in argument order.
func comparePairs(m *sim.Multiplexer, cfgs []sim.Config) ([]*sim.Comparison, error) {
	const maxPairs = 32
	out := make([]*sim.Comparison, 0, len(cfgs))
	for chunk := range slices.Chunk(cfgs, maxPairs) {
		lanes := make([]sim.LaneSpec, 0, 2*len(chunk))
		for _, cfg := range chunk {
			lanes = append(lanes,
				sim.LaneSpec{Config: cfg, Policy: sim.PolicyFLT},
				sim.LaneSpec{Config: cfg, Policy: sim.PolicyActiveDR})
		}
		res, err := m.Run(lanes)
		if err != nil {
			return nil, err
		}
		for i := range chunk {
			out = append(out, &sim.Comparison{FLT: res[2*i], ActiveDR: res[2*i+1]})
		}
	}
	return out, nil
}

// groupNames returns the paper's group labels in scan order.
func groupNames() [activeness.NumGroups]string {
	var names [activeness.NumGroups]string
	for _, g := range activeness.Groups() {
		names[g] = g.String()
	}
	return names
}

// --- Table 1 ---

// Table1Result lists the facility presets.
type Table1Result struct{ Facilities []config.Facility }

// Table1 reproduces the facility-policy table.
func (s *Suite) Table1() *Table1Result {
	return &Table1Result{Facilities: config.Facilities()}
}

// Render writes the table.
func (r *Table1Result) Render(w io.Writer) {
	t := report.NewTable("Table 1: data retention at HPC facilities", "Facility", "Scratch", "Retention")
	for _, f := range r.Facilities {
		t.AddRow(f.Name, f.Scratch, fmt.Sprintf("purge any %s old", f.Lifetime))
	}
	t.Render(w)
}

// --- Figure 1 ---

// Figure1Result is the FLT-only year: daily miss ratios and the
// range-bucketed day counts.
type Figure1Result struct {
	Days    []sim.DayStats
	Buckets *stats.RangeBuckets
	// DaysOver5Pct is the headline "users may intermittently suffer
	// ... during N days" count.
	DaysOver5Pct int
}

// Figure1 replays 2016 under FLT-90 alone and buckets the daily miss
// ratios, as the paper's motivating emulation does.
func (s *Suite) Figure1() (*Figure1Result, error) {
	cmp, err := s.comparison90()
	if err != nil {
		return nil, err
	}
	res := &Figure1Result{Days: cmp.FLT.Days, Buckets: stats.NewMissRatioBuckets()}
	for _, ratio := range cmp.FLT.MissRatioDays() {
		res.Buckets.Add(ratio)
	}
	res.DaysOver5Pct = res.Buckets.CountAtLeast(0.05)
	return res, nil
}

// Render writes the monthly ratio series and the day-count histogram.
func (r *Figure1Result) Render(w io.Writer) {
	rows := monthlyRatioRows(map[string][]sim.DayStats{"FLT": r.Days}, []string{"FLT"})
	report.Series(w, "Figure 1 (left): FLT monthly mean file-miss ratio", "month", []string{"FLT"}, rows)
	report.Histogram(w, "Figure 1 (right): days per miss-ratio range (FLT)",
		r.Buckets.Labels(), map[string][]int{"FLT": r.Buckets.Counts()}, []string{"FLT"})
	fmt.Fprintf(w, "days with >5%% file misses: %d\n", r.DaysOver5Pct)
}

// monthlyRatioRows averages day ratios per calendar month for compact
// series rendering.
func monthlyRatioRows(byPolicy map[string][]sim.DayStats, order []string) []report.SeriesRow {
	type agg struct{ acc, miss int64 }
	months := map[string]map[string]*agg{}
	var monthOrder []string
	for _, name := range order {
		for _, d := range byPolicy[name] {
			m := d.Day.MonthString()
			if months[m] == nil {
				months[m] = map[string]*agg{}
				monthOrder = append(monthOrder, m)
			}
			if months[m][name] == nil {
				months[m][name] = &agg{}
			}
			months[m][name].acc += d.Accesses
			months[m][name].miss += d.Misses
		}
	}
	var rows []report.SeriesRow
	for _, m := range monthOrder {
		row := report.SeriesRow{X: m}
		for _, name := range order {
			a := months[m][name]
			if a == nil || a.acc == 0 {
				row.Y = append(row.Y, 0)
			} else {
				row.Y = append(row.Y, float64(a.miss)/float64(a.acc))
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// --- Figure 5 ---

// Figure5Cell is one period-length column of the activeness matrix.
type Figure5Cell struct {
	Period timeutil.Duration
	Matrix activeness.Matrix
}

// Figure5Result holds the matrix shares for the period sweep.
type Figure5Result struct{ Cells []Figure5Cell }

// Figure5 evaluates the user activeness matrix at the capture date
// for each period length.
func (s *Suite) Figure5() (*Figure5Result, error) {
	res := &Figure5Result{}
	for _, d := range config.PeriodLengths {
		ranks := sim.NewEvaluator(s.ds, sim.Config{PeriodLength: d}).EvaluateAll(len(s.ds.Users), CaptureDate)
		res.Cells = append(res.Cells, Figure5Cell{Period: d, Matrix: activeness.NewMatrix(ranks)})
	}
	return res, nil
}

// Render writes the share table.
func (r *Figure5Result) Render(w io.Writer) {
	names := groupNames()
	t := report.NewTable("Figure 5: user activeness matrix shares",
		"Period", names[activeness.BothActive], names[activeness.OperationActiveOnly],
		names[activeness.OutcomeActiveOnly], names[activeness.BothInactive])
	for _, c := range r.Cells {
		t.AddRow(c.Period.String(),
			fmt.Sprintf("%.2f%%", 100*c.Matrix.Share(activeness.BothActive)),
			fmt.Sprintf("%.2f%%", 100*c.Matrix.Share(activeness.OperationActiveOnly)),
			fmt.Sprintf("%.2f%%", 100*c.Matrix.Share(activeness.OutcomeActiveOnly)),
			fmt.Sprintf("%.2f%%", 100*c.Matrix.Share(activeness.BothInactive)))
	}
	t.Render(w)
}

// --- Figure 6 ---

// Figure6Result compares the miss-ratio day histograms of the two
// policies at the 90-day setting.
type Figure6Result struct {
	FLT, ActiveDR                 *stats.RangeBuckets
	FLTDaysOver5, ADRDaysOver5    int
	OverallReduction              float64
	TotalMissesFLT, TotalMissesDR int64
}

// Figure6 buckets both policies' daily miss ratios.
func (s *Suite) Figure6() (*Figure6Result, error) {
	cmp, err := s.comparison90()
	if err != nil {
		return nil, err
	}
	res := &Figure6Result{
		FLT:            stats.NewMissRatioBuckets(),
		ActiveDR:       stats.NewMissRatioBuckets(),
		TotalMissesFLT: cmp.FLT.TotalMisses,
		TotalMissesDR:  cmp.ActiveDR.TotalMisses,
	}
	for _, ratio := range cmp.FLT.MissRatioDays() {
		res.FLT.Add(ratio)
	}
	for _, ratio := range cmp.ActiveDR.MissRatioDays() {
		res.ActiveDR.Add(ratio)
	}
	res.FLTDaysOver5 = res.FLT.CountAtLeast(0.05)
	res.ADRDaysOver5 = res.ActiveDR.CountAtLeast(0.05)
	res.OverallReduction = cmp.MissReduction()
	return res, nil
}

// Render writes the side-by-side histogram.
func (r *Figure6Result) Render(w io.Writer) {
	report.Histogram(w, "Figure 6: days per miss-ratio range",
		r.FLT.Labels(),
		map[string][]int{"FLT": r.FLT.Counts(), "ActiveDR": r.ActiveDR.Counts()},
		[]string{"FLT", "ActiveDR"})
	fmt.Fprintf(w, "days >5%% misses: FLT=%d ActiveDR=%d (paper: 138 → 95)\n",
		r.FLTDaysOver5, r.ADRDaysOver5)
	fmt.Fprintf(w, "total misses: FLT=%d ActiveDR=%d (reduction %s)\n",
		r.TotalMissesFLT, r.TotalMissesDR, report.Percent(r.OverallReduction))
}

// --- Figure 7 ---

// Figure7Result is the monthly cumulative miss series per group.
type Figure7Result struct {
	Months []string
	// Cum[group][policy][monthIndex], policies indexed FLT=0, ADR=1.
	Cum [activeness.NumGroups][2][]int64
}

// Figure7 accumulates per-group misses month by month for both
// policies.
func (s *Suite) Figure7() (*Figure7Result, error) {
	cmp, err := s.comparison90()
	if err != nil {
		return nil, err
	}
	res := &Figure7Result{}
	monthIdx := map[string]int{}
	for pi, run := range []*sim.Result{cmp.FLT, cmp.ActiveDR} {
		var running [activeness.NumGroups]int64
		for _, day := range run.Days {
			m := day.Day.MonthString()
			idx, ok := monthIdx[m]
			if !ok {
				idx = len(res.Months)
				monthIdx[m] = idx
				res.Months = append(res.Months, m)
			}
			for g := 0; g < activeness.NumGroups; g++ {
				running[g] += day.ByGroup[g].Misses
				for len(res.Cum[g][pi]) <= idx {
					res.Cum[g][pi] = append(res.Cum[g][pi], running[g])
				}
				res.Cum[g][pi][idx] = running[g]
			}
		}
	}
	return res, nil
}

// Render writes one series block per group.
func (r *Figure7Result) Render(w io.Writer) {
	for _, g := range activeness.Groups() {
		var rows []report.SeriesRow
		for i, m := range r.Months {
			row := report.SeriesRow{X: m}
			for pi := 0; pi < 2; pi++ {
				v := int64(0)
				if i < len(r.Cum[g][pi]) {
					v = r.Cum[g][pi][i]
				}
				row.Y = append(row.Y, float64(v))
			}
			rows = append(rows, row)
		}
		report.Series(w, fmt.Sprintf("Figure 7: cumulative file misses — %s", g),
			"month", []string{"FLT", "ActiveDR"}, rows)
	}
}

// --- Figure 8 ---

// Figure8Result holds per-group box statistics of the per-day file
// miss reduction ratio.
type Figure8Result struct {
	Boxes [activeness.NumGroups]stats.Box
}

// Figure8 computes, for every replay day with FLT misses in a group,
// the reduction ratio (FLT−ADR)/FLT and summarizes per group.
func (s *Suite) Figure8() (*Figure8Result, error) {
	cmp, err := s.comparison90()
	if err != nil {
		return nil, err
	}
	// Align days by date.
	adrByDay := map[timeutil.Time]sim.DayStats{}
	for _, d := range cmp.ActiveDR.Days {
		adrByDay[d.Day] = d
	}
	var perGroup [activeness.NumGroups][]float64
	for _, fd := range cmp.FLT.Days {
		ad := adrByDay[fd.Day]
		for g := 0; g < activeness.NumGroups; g++ {
			fm := fd.ByGroup[g].Misses
			if fm == 0 {
				continue
			}
			perGroup[g] = append(perGroup[g],
				stats.ReductionRatio(float64(fm), float64(ad.ByGroup[g].Misses)))
		}
	}
	res := &Figure8Result{}
	for g := range perGroup {
		res.Boxes[g] = stats.NewBox(perGroup[g])
	}
	return res, nil
}

// Render writes one box line per group.
func (r *Figure8Result) Render(w io.Writer) {
	fmt.Fprintln(w, "== Figure 8: file miss reduction ratio (per day, per group) ==")
	for _, g := range []activeness.Group{activeness.BothActive, activeness.OperationActiveOnly, activeness.OutcomeActiveOnly, activeness.BothInactive} {
		fmt.Fprintln(w, report.BoxRow(g.String(), r.Boxes[g]))
	}
}

// --- Figures 9–11, Tables 4–6 ---

// RetentionCell is one (period length, policy) slice of the
// capture-date purge pass.
type RetentionCell struct {
	Period timeutil.Duration
	// Report is the purge report of the trigger at the capture date,
	// measured against the policy's own evolved file system.
	FLT, ActiveDR *retention.Report
	// AffectedFLT/ADR count distinct users who lost files across the
	// whole replay up to (and including) the capture trigger.
	AffectedFLT, AffectedADR [activeness.NumGroups]int
}

// RetentionSweepResult backs Figures 9, 10, 11 and Tables 4, 5, 6.
type RetentionSweepResult struct{ Cells []RetentionCell }

// RetentionSweep compares the policies at every period length, in one
// call, and pulls the capture-date reports.
func (s *Suite) RetentionSweep() (*RetentionSweepResult, error) {
	cmps, err := s.compare(periodConfigs()...)
	if err != nil {
		return nil, err
	}
	res := &RetentionSweepResult{}
	for i, d := range config.PeriodLengths {
		cmp := cmps[i]
		cell := RetentionCell{Period: d}
		cell.FLT = reportAt(cmp.FLT.Reports, CaptureDate)
		cell.ActiveDR = reportAt(cmp.ActiveDR.Reports, CaptureDate)
		if cell.FLT == nil || cell.ActiveDR == nil {
			return nil, fmt.Errorf("experiments: no purge report at %v for %v", CaptureDate, d)
		}
		ranks := sim.NewEvaluator(s.ds, sim.Config{PeriodLength: d}).EvaluateAll(len(s.ds.Users), CaptureDate)
		cell.AffectedFLT = distinctAffected(cmp.FLT.Reports, ranks, CaptureDate)
		cell.AffectedADR = distinctAffected(cmp.ActiveDR.Reports, ranks, CaptureDate)
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// reportAt returns the first report at or after the capture date.
func reportAt(reports []*retention.Report, at timeutil.Time) *retention.Report {
	for _, r := range reports {
		if r.At >= at {
			return r
		}
	}
	if len(reports) > 0 {
		return reports[len(reports)-1]
	}
	return nil
}

// distinctAffected unions affected users per group across all reports
// up to the capture date, classifying by the capture-date ranks.
func distinctAffected(reports []*retention.Report, ranks []activeness.Rank, until timeutil.Time) [activeness.NumGroups]int {
	seen := map[trace.UserID]bool{}
	var out [activeness.NumGroups]int
	for _, r := range reports {
		if r.At > until {
			break
		}
		for _, u := range r.AffectedIDs {
			if seen[u] {
				continue
			}
			seen[u] = true
			g := activeness.BothInactive
			if int(u) < len(ranks) {
				g = ranks[u].Group()
			}
			out[g]++
		}
	}
	return out
}

// Figure9 renders the retained-bytes comparison (and Tables 4 and 5).
func (r *RetentionSweepResult) Figure9(w io.Writer) {
	t := report.NewTable("Figure 9: total size of retained files",
		"Period", "Group", "FLT", "ActiveDR", "Δ bytes (T5)", "Δ% vs FLT (T4)")
	for _, c := range r.Cells {
		for _, g := range activeness.Groups() {
			fb := c.FLT.Groups[g].RetainedBytes()
			ab := c.ActiveDR.Groups[g].RetainedBytes()
			pct := "n/a"
			if fb != 0 {
				pct = report.Percent(float64(ab-fb) / float64(fb))
			}
			t.AddRow(c.Period.String(), g.String(), report.Bytes(fb), report.Bytes(ab),
				report.Bytes(ab-fb), pct)
		}
	}
	t.Render(w)
}

// Figure10 renders the purged-bytes comparison (and Table 6).
func (r *RetentionSweepResult) Figure10(w io.Writer) {
	t := report.NewTable("Figure 10: total size of purged files",
		"Period", "Group", "FLT", "ActiveDR", "FLT−ActiveDR (T6)")
	for _, c := range r.Cells {
		for _, g := range activeness.Groups() {
			fb := c.FLT.Groups[g].PurgedBytes
			ab := c.ActiveDR.Groups[g].PurgedBytes
			t.AddRow(c.Period.String(), g.String(), report.Bytes(fb), report.Bytes(ab), report.Bytes(fb-ab))
		}
	}
	t.Render(w)
}

// Figure11 renders the affected-users comparison.
func (r *RetentionSweepResult) Figure11(w io.Writer) {
	t := report.NewTable("Figure 11: users affected by file purge",
		"Period", "Group", "FLT", "ActiveDR")
	for _, c := range r.Cells {
		for _, g := range activeness.Groups() {
			t.AddRow(c.Period.String(), g.String(),
				fmt.Sprint(c.AffectedFLT[g]), fmt.Sprint(c.AffectedADR[g]))
		}
	}
	t.Render(w)
}

// --- Figure 12 ---

// LoadStats measures trace loading cost (Figure 12a).
type LoadStats struct {
	Users, Jobs, Accesses, Pubs, SnapshotEntries int
	LoadTime                                     time.Duration
	HeapBytes                                    uint64
}

// Figure12Result aggregates the performance evaluation.
type Figure12Result struct {
	Load LoadStats
	// Files and PathBytes size the record table of the loaded
	// snapshot: its files and the path bytes they hold.
	Files     int
	PathBytes int64
	// EvalTimings/DecisionTimings/ScanTimings are per-rank probes
	// (Figures 12b–d).
	EvalTimings     []parallel.RankTiming
	DecisionTimings []parallel.RankTiming
	ScanTimings     []parallel.RankTiming
	Ranks           int
}

// Figure12 measures activeness evaluation, purge decision, and
// snapshot scan cost with per-rank probes.
func (s *Suite) Figure12(ranks int) (*Figure12Result, error) {
	res := &Figure12Result{Ranks: ranks}

	// Load the snapshot and index the traces afresh so their cost is
	// measured.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	timer := profiling.StartTimer()
	em, err := sim.New(s.ds, sim.Config{
		Lifetime:          timeutil.Days(90),
		TargetUtilization: config.TargetUtilization,
		CaptureAt:         CaptureDate,
	})
	if err != nil {
		return nil, err
	}
	res.Load.LoadTime = timer.Elapsed()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc {
		res.Load.HeapBytes = after.HeapAlloc - before.HeapAlloc
	}
	res.Load.Users = len(s.ds.Users)
	res.Load.Jobs = len(s.ds.Jobs)
	res.Load.Accesses = len(s.ds.Accesses)
	res.Load.Pubs = len(s.ds.Publications)
	res.Load.SnapshotEntries = len(s.ds.Snapshot.Entries)

	pool := parallel.NewPool(ranks)
	ev := em.Evaluator()
	n := len(s.ds.Users)
	rankTable := make([]activeness.Rank, n)
	res.EvalTimings, err = pool.TimedShards(n, func(rank, lo, hi int) {
		for u := lo; u < hi; u++ {
			rankTable[u] = ev.EvaluateUser(trace.UserID(u), CaptureDate)
		}
	})
	if err != nil {
		return nil, err
	}

	// Purge decision: evaluate the lifetime test for every file in
	// the base snapshot, sharded.
	fsys := em.BaseFS()
	snap := fsys.Snapshot(CaptureDate)
	adr, err := em.NewActiveDR()
	if err != nil {
		return nil, err
	}
	lifetime := adr.Config().Lifetime
	res.DecisionTimings, err = pool.TimedShards(len(snap.Entries), func(rank, lo, hi int) {
		for i := lo; i < hi; i++ {
			e := &snap.Entries[i]
			mult := rankTable[e.User].LifetimeMultiplier()
			eps := timeutil.Duration(float64(lifetime) * mult)
			_ = CaptureDate.Sub(e.ATime) > eps
		}
	})
	if err != nil {
		return nil, err
	}

	// Snapshot scan: walk shards of the namespace, summing sizes.
	paths := make([]string, 0, len(snap.Entries))
	for i := range snap.Entries {
		paths = append(paths, snap.Entries[i].Path)
		res.PathBytes += int64(len(snap.Entries[i].Path))
	}
	res.Files = len(paths)
	res.ScanTimings, err = pool.TimedShards(len(paths), func(rank, lo, hi int) {
		var bytes int64
		for i := lo; i < hi; i++ {
			if m, ok := fsys.Lookup(paths[i]); ok {
				bytes += m.Size
			}
		}
		_ = bytes
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render writes the performance report.
func (r *Figure12Result) Render(w io.Writer) {
	fmt.Fprintln(w, "== Figure 12: performance evaluation ==")
	fmt.Fprintf(w, "traces: users=%d jobs=%d accesses=%d pubs=%d snapshot=%d files\n",
		r.Load.Users, r.Load.Jobs, r.Load.Accesses, r.Load.Pubs, r.Load.SnapshotEntries)
	fmt.Fprintf(w, "(a) load+index time=%v heap≈%.1f MiB\n",
		r.Load.LoadTime, float64(r.Load.HeapBytes)/(1<<20))
	fmt.Fprintf(w, "(a) record table: %d files, %.2f MiB of paths\n",
		r.Files, float64(r.PathBytes)/(1<<20))
	for _, block := range []struct {
		name    string
		timings []parallel.RankTiming
	}{
		{"(b) activeness evaluation", r.EvalTimings},
		{"(b) purge decision", r.DecisionTimings},
		{"(c/d) snapshot scan", r.ScanTimings},
	} {
		fmt.Fprintf(w, "%s, %d ranks:\n", block.name, r.Ranks)
		for _, tm := range block.timings {
			fmt.Fprintf(w, "  %s\n", tm)
		}
	}
}

// RunAll renders every table and figure to w (cmd/report's default).
// It fills the comparisons behind the figures first, every period
// length in one multiplexed pass, then renders from the cache in
// order. ranks sizes Figure 12's per-rank probes.
func (s *Suite) RunAll(w io.Writer, ranks int) error {
	if _, err := s.compare(periodConfigs()...); err != nil {
		return err
	}
	s.Table1().Render(w)
	f1, err := s.Figure1()
	if err != nil {
		return err
	}
	f1.Render(w)
	f5, err := s.Figure5()
	if err != nil {
		return err
	}
	f5.Render(w)
	f6, err := s.Figure6()
	if err != nil {
		return err
	}
	f6.Render(w)
	f7, err := s.Figure7()
	if err != nil {
		return err
	}
	f7.Render(w)
	f8, err := s.Figure8()
	if err != nil {
		return err
	}
	f8.Render(w)
	sweep, err := s.RetentionSweep()
	if err != nil {
		return err
	}
	sweep.Figure9(w)
	sweep.Figure10(w)
	sweep.Figure11(w)
	f12, err := s.Figure12(ranks)
	if err != nil {
		return err
	}
	f12.Render(w)
	return nil
}
