package workload

// Regeneration: turn a fitted Model back into a replayable trace, at
// 1x or at a user-scale multiplier. Every clone of a source user gets
// its own deterministic random stream derived from (seed, clone id),
// independent of emission order, and clones emit in ID order with
// fixed-width names, so the regenerated snapshot comes out in
// ascending path order: the order vfs.WriteSnapfileFromSnapshot
// requires.

import (
	"fmt"
	"sort"

	"activedr/internal/randx"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// RegenConfig parameterizes regeneration.
type RegenConfig struct {
	// Scale clones each fitted user this many times (1 = same size).
	Scale int
	// Seed drives every random draw. 0 means 1.
	Seed uint64
}

func (c RegenConfig) defaults() (RegenConfig, error) {
	if c.Scale < 1 {
		return c, fmt.Errorf("workload: regen scale %d, want >= 1", c.Scale)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c, nil
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cloneSeed derives clone id's private stream seed.
func cloneSeed(seed uint64, id int) uint64 {
	return seed ^ (uint64(id+1) * 0x9e3779b97f4a7c15)
}

// cloneName formats clone id's login. Fixed width keeps name order,
// ID order, and path order aligned at any scale (the snapfile format
// keys on path order).
func cloneName(id int) string { return fmt.Sprintf("w%07d", id) }

// regenFiles deterministically regenerates one clone's snapshot files
// from its strata: exact per-stratum counts and byte masses, ages
// interpolated across the stratum's range, sizes log-jittered then
// rescaled so the stratum's byte mass is exact. The first
// TouchedCount files of each stratum form the re-readable subset,
// sized to exactly TouchedBytes, and are flagged in the returned
// slice. Paths ascend with the file index.
func regenFiles(um *UserModel, id int, seed uint64) ([]trace.SnapshotEntry, []bool) {
	src := randx.New(cloneSeed(seed, id))
	name := cloneName(id)
	stripes := int(um.MeanStripes + 0.5)
	if stripes < 1 {
		stripes = 1
	}
	entries := make([]trace.SnapshotEntry, 0, um.Files())
	touched := make([]bool, 0, um.Files())
	idx := 0
	for _, st := range um.Strata {
		if st.Count == 0 {
			continue
		}
		// Log-jittered weights, rescaled per group to the exact masses.
		bytesT := st.TouchedBytes
		if st.TouchedCount == st.Count {
			bytesT = st.Bytes // degenerate split: everything is touched
		}
		bytesU := st.Bytes - bytesT
		weights := make([]float64, st.Count)
		var wT, wU float64
		for k := range weights {
			weights[k] = src.LogNormal(0, 0.6)
			if k < st.TouchedCount {
				wT += weights[k]
			} else {
				wU += weights[k]
			}
		}
		var asgT, asgU int64
		for k := 0; k < st.Count; k++ {
			ageDays := st.AgeLoDays + (st.AgeHiDays-st.AgeLoDays)*(float64(k)+0.5)/float64(st.Count)
			isTouched := k < st.TouchedCount
			var size int64
			if isTouched {
				size = int64(float64(bytesT) * weights[k] / wT)
				if k == st.TouchedCount-1 {
					size = bytesT - asgT // exact mass, remainder to the last file
				}
				if size < 0 {
					size = 0
				}
				asgT += size
			} else {
				size = int64(float64(bytesU) * weights[k] / wU)
				if k == st.Count-1 {
					size = bytesU - asgU
				}
				if size < 0 {
					size = 0
				}
				asgU += size
			}
			entries = append(entries, trace.SnapshotEntry{
				Path:    fmt.Sprintf("/lustre/in2p3/%s/f%05d.dat", name, idx),
				Size:    size,
				Stripes: stripes,
				ATime:   timeutil.Time(0).Add(-timeutil.Duration(ageDays * float64(timeutil.Day))), // rebased by caller
			})
			touched = append(touched, isTouched)
			idx++
		}
	}
	return entries, touched
}

// Regen regenerates a full dataset from the model at cfg.Scale, held
// in memory: the snapshot and the event log (jobs, accesses, logins)
// both scale with Scale x the fitted counts.
func Regen(m *Model, cfg RegenConfig) (*trace.Dataset, error) {
	cfg, err := cfg.defaults()
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	taken := m.Taken
	weeks := (m.SpanDays + 6) / 7
	d := &trace.Dataset{}
	d.Snapshot.Taken = taken

	for id := 0; id < len(m.Users)*cfg.Scale; id++ {
		um := &m.Users[id/cfg.Scale]
		name := cloneName(id)
		files, touchedFlags := regenFiles(um, id, cfg.Seed)
		// Only the touched subset is re-readable: the rest ages out
		// exactly like the source files the trace never came back for.
		pool := make([]poolFile, 0, len(files))
		for k := range files {
			if touchedFlags[k] {
				pool = append(pool, poolFile{path: files[k].Path, size: files[k].Size,
					atime: taken.Add(timeutil.Duration(files[k].ATime))})
			}
		}
		// The event stream draws from a source independent of the
		// snapshot draws so adding event kinds never perturbs the
		// namespace (and vice versa).
		src := randx.New(cloneSeed(cfg.Seed, id) ^ 0xa5a5_5a5a_c3c3_3c3c)
		d.Users = append(d.Users, trace.User{
			ID:      trace.UserID(id),
			Name:    name,
			Created: taken.Add(-timeutil.Duration(src.Int64n(int64(2 * 365 * timeutil.Day)))),
		})
		for k := range files {
			e := files[k]
			e.User = trace.UserID(id)
			e.ATime = taken.Add(timeutil.Duration(e.ATime))
			d.Snapshot.Entries = append(d.Snapshot.Entries, e)
		}

		// Cadence is pinned, not redrawn: every clone replays the fitted
		// activeness vector verbatim — exact week positions, per-week
		// job counts, and per-week core-hour mass. A refit then
		// reproduces ActiveWeekFrac to within rounding, and the rank
		// formula the policies key on (which zeroes on any empty period
		// and weighs per-period impact ratios) sees the same dormancy
		// windows and impact profile as the source — i.i.d. weekly
		// draws let small populations drift across class thresholds and
		// smear the purge timing.
		cadence := um.Cadence
		if len(cadence) == 0 && um.ActiveWeekFrac > 0 {
			// Model without a vector (hand-built): draw the positions
			// and spread the mean cadence across them.
			nActive := int(um.ActiveWeekFrac*float64(weeks) + 0.5)
			if nActive == 0 {
				nActive = 1
			}
			if nActive > weeks {
				nActive = weeks
			}
			wk := make([]int, weeks)
			for i := range wk {
				wk[i] = i
			}
			for i := 0; i < nActive; i++ { // partial Fisher-Yates
				j := i + src.Intn(weeks-i)
				wk[i], wk[j] = wk[j], wk[i]
			}
			active := append([]int(nil), wk[:nActive]...)
			sort.Ints(active)
			totalJobs := int(float64(nActive)*um.JobsPerActiveWeek + 0.5)
			if totalJobs < nActive {
				totalJobs = nActive // fit counts a week active only if it has a job
			}
			for wi, w := range active {
				nJobs := totalJobs/nActive + boolToInt(wi < totalJobs%nActive)
				cadence = append(cadence, WeekActivity{Week: w, Jobs: nJobs,
					CoreHours: float64(nJobs) * um.MeanCores * um.MeanDurationH})
			}
		}

		// Create accesses are emitted with drawn sizes, then rescaled
		// below so the clone's created byte mass is exactly the fitted
		// CreatedBytes — created bytes dominate purge totals, and the
		// heavy-tailed size draw is too noisy to leave free.
		accStart := len(d.Accesses)
		var createIdx []int
		var createWeight []float64

		// Re-reads pace through the fitted per-file gap histogram: each
		// pick targets the bucket furthest behind its fitted share, and
		// within the bucket the candidate whose size best tracks the
		// bucket's byte pace. Long-gap "resurrections" — the re-reads
		// that miss under a retention policy and drag restore churn
		// with them — thus arrive with the source's frequency and mass
		// instead of riding on uniform-pick luck.
		gapFit := um.GapHist
		gapTotal := 0
		for _, b := range gapFit {
			gapTotal += b.Count
		}
		var gapEmitCount [NumGapBuckets]int
		var gapEmitBytes [NumGapBuckets]int64
		rereadIdx := 0
		pickReread := func(at timeutil.Time) int {
			if gapTotal == 0 { // no histogram (hand-built model): uniform
				return src.Intn(len(pool))
			}
			bucketOf := func(pi int) int {
				gapDays := float64(at.Sub(pool[pi].atime)) / float64(timeutil.Day)
				if gapDays < 0 {
					gapDays = 0
				}
				return gapBucket(gapDays)
			}
			want, bestDef := -1, 0.0
			for i := range gapFit {
				if gapFit[i].Count == 0 {
					continue
				}
				def := float64(gapFit[i].Count)*float64(rereadIdx+1)/float64(gapTotal) - float64(gapEmitCount[i])
				if want == -1 || def > bestDef {
					want, bestDef = i, def
				}
			}
			for radius := 0; radius < NumGapBuckets; radius++ {
				for _, bb := range [2]int{want - radius, want + radius} {
					if bb < 0 || bb >= NumGapBuckets {
						continue
					}
					remPicks := gapFit[bb].Count - gapEmitCount[bb]
					if remPicks < 1 {
						remPicks = 1
					}
					target := float64(gapFit[bb].Bytes-gapEmitBytes[bb]) / float64(remPicks)
					pick, bestDiff := -1, 0.0
					for pi := range pool {
						if bucketOf(pi) != bb {
							continue
						}
						diff := float64(pool[pi].size) - target
						if diff < 0 {
							diff = -diff
						}
						if pick == -1 || diff < bestDiff {
							pick, bestDiff = pi, diff
						}
					}
					if pick >= 0 {
						return pick
					}
				}
			}
			return src.Intn(len(pool)) // unreachable: every file has a bucket
		}

		// Touch and create counts are paced, not drawn: the clone emits
		// exactly round(TouchesPerJob x jobs) accesses, with creates
		// spread through them at CreateFrac by largest-remainder pacing.
		// Count-level noise feeds straight into miss/restore churn,
		// which is what the purge-total fidelity check measures.
		totalJobs := 0
		for _, wa := range cadence {
			totalJobs += wa.Jobs
		}
		totalTouches := int(um.TouchesPerJob*float64(totalJobs) + 0.5)
		if totalTouches < totalJobs {
			totalTouches = totalJobs // fit divides accesses by jobs, so >= 1 each
		}
		jobIdx, touchCount, createCount := 0, 0, 0

		lastLoginDay := -1 << 30
		genFile := 0
		for _, wa := range cadence {
			weekStart := taken.Add(timeutil.Duration(wa.Week) * timeutil.Week)
			// Split the week's core-hour mass across its jobs: durations
			// are drawn (they set the access-time spread), cores are
			// back-solved from each job's share so the week's total
			// impact tracks the fitted one.
			durHArr := make([]float64, wa.Jobs)
			shares := make([]float64, wa.Jobs)
			var totalShare float64
			for j := range durHArr {
				durH := src.Exp(um.MeanDurationH)
				if durH < 0.02 {
					durH = 0.02
				}
				if durH > 7*24 {
					durH = 7 * 24
				}
				durHArr[j] = durH
				shares[j] = src.Exp(1) + 0.05
				totalShare += shares[j]
			}
			for j := 0; j < wa.Jobs; j++ {
				submit := weekStart.Add(timeutil.Duration(src.Int64n(int64(timeutil.Week))))
				durH := durHArr[j]
				cores := int(wa.CoreHours*shares[j]/totalShare/durH + 0.5)
				if cores < 1 {
					cores = 1
				}
				if cores > 1<<20 {
					cores = 1 << 20
				}
				duration := timeutil.Duration(durH * float64(timeutil.Hour))
				d.Jobs = append(d.Jobs, trace.Job{User: trace.UserID(id), Submit: submit,
					Duration: duration, Cores: cores})
				if day := submit.DayIndex(); day != lastLoginDay {
					lastLoginDay = day
					d.Logins = append(d.Logins, trace.Login{User: trace.UserID(id), TS: submit})
				}

				nTouch := totalTouches/totalJobs + boolToInt(jobIdx < totalTouches%totalJobs)
				jobIdx++
				for k := 0; k < nTouch; k++ {
					at := submit.Add(timeutil.Duration(src.Int64n(int64(duration) + 1)))
					isCreate := int(float64(touchCount+1)*um.CreateFrac+1e-9) > createCount
					touchCount++
					if isCreate || len(pool) == 0 {
						createCount++
						size := int64(src.LogNormal(16.0, 2.0)) + 4096
						pf := poolFile{
							path: fmt.Sprintf("/lustre/in2p3/%s/g%06d.dat", name, genFile),
							size: size, atime: at,
						}
						genFile++
						pool = append(pool, pf)
						createIdx = append(createIdx, len(d.Accesses))
						// Budget shares use a moderate jitter, not the raw
						// heavy-tailed size draw: one giant synthetic file
						// cycling through purge/miss/restore would swamp
						// the purge totals with sampling noise.
						createWeight = append(createWeight, src.LogNormal(0, 0.6))
						d.Accesses = append(d.Accesses, trace.Access{
							TS: at, User: trace.UserID(id), Create: true, Path: pf.path, Size: size,
						})
					} else {
						pick := pickReread(at)
						pf := &pool[pick]
						gapDays := float64(at.Sub(pf.atime)) / float64(timeutil.Day)
						if gapDays < 0 {
							gapDays = 0
						}
						b := gapBucket(gapDays)
						gapEmitCount[b]++
						gapEmitBytes[b] += pf.size
						rereadIdx++
						if at.After(pf.atime) {
							pf.atime = at
						}
						d.Accesses = append(d.Accesses, trace.Access{
							TS: at, User: trace.UserID(id), Create: false, Path: pf.path, Size: pf.size,
						})
					}
				}
			}
		}

		// Rescale this clone's creates to the exact fitted byte budget,
		// then patch the re-reads that copied a created file's size.
		if len(createIdx) > 0 && um.CreatedBytes > 0 {
			var totalW float64
			for _, w := range createWeight {
				totalW += w
			}
			resized := make(map[string]int64, len(createIdx))
			var assigned int64
			for k, ai := range createIdx {
				size := int64(float64(um.CreatedBytes) * createWeight[k] / totalW)
				if k == len(createIdx)-1 {
					size = um.CreatedBytes - assigned
				}
				if size < 0 {
					size = 0
				}
				assigned += size
				d.Accesses[ai].Size = size
				resized[d.Accesses[ai].Path] = size
			}
			for ai := accStart; ai < len(d.Accesses); ai++ {
				a := &d.Accesses[ai]
				if !a.Create {
					if size, ok := resized[a.Path]; ok {
						a.Size = size
					}
				}
			}
		}
	}

	d.SortJobs()
	d.SortAccesses()
	sort.SliceStable(d.Logins, func(i, j int) bool { return d.Logins[i].TS < d.Logins[j].TS })
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("workload: regenerated dataset invalid: %w", err)
	}
	return d, nil
}
