package experiments

import (
	"fmt"
	"io"
	"time"

	"activedr/internal/archive"
	"activedr/internal/config"
	"activedr/internal/report"
	"activedr/internal/retention"
	"activedr/internal/sim"
	"activedr/internal/timeutil"
)

// AblationRow is one design variant's outcome on the replay year.
type AblationRow struct {
	Name        string
	Description string
	FLTMisses   int64
	ADRMisses   int64
	Reduction   float64
	// TargetReachedFrac is the fraction of ActiveDR purge triggers
	// that met the purge target.
	TargetReachedFrac float64
}

// AblationResult backs the design-choice ablation table (DESIGN.md §3
// calls out each knob).
type AblationResult struct {
	Rows []AblationRow
	// RestoreCosts estimates the archive-recall time of each policy's
	// misses under the reference archive models (baseline variant).
	RestoreCosts []RestoreCostRow
}

// RestoreCostRow is the miss cost under one archive model.
type RestoreCostRow struct {
	Model   archive.Model
	FLT     time.Duration
	ADR     time.Duration
	Savings time.Duration
}

// ablationVariants enumerates the design-knob settings under test.
func ablationVariants() []struct {
	name, desc string
	cfg        sim.Config
} {
	base := sim.Config{TargetUtilization: config.TargetUtilization}
	withOrder := base
	withOrder.Order = retention.ScanOrderMergedByOutcome
	strict := base
	strict.StrictEq7 = true
	noTarget := sim.Config{TargetUtilization: 0}
	gentleRetro := base
	gentleRetro.RetroPasses = 1
	gentleRetro.RetroDecay = 0.95
	shortPeriod := base
	shortPeriod.PeriodLength = timeutil.Days(30)
	extraTypes := base
	extraTypes.UseLogins = true
	extraTypes.UseTransfers = true
	return []struct {
		name, desc string
		cfg        sim.Config
	}{
		{"baseline", "paper configuration (90d, 50% target, 5 retro passes)", base},
		{"merged-scan-order", "op-active groups merged, ordered by Φ_oc (§3.4 alt. reading)", withOrder},
		{"strict-eq7", "literal Eq. 7 product, no active-class flooring", strict},
		{"no-target", "purge target disabled: every stale file purged", noTarget},
		{"gentle-retro", "1 retrospective pass, 5% decay", gentleRetro},
		{"period-30d", "activeness period decoupled: 30d periods, 90d lifetime", shortPeriod},
		{"all-op-types", "logins + transfers as extra operation activities", extraTypes},
	}
}

// Ablation compares the policies under every design variant, all
// variants in one call.
func (s *Suite) Ablation() (*AblationResult, error) {
	variants := ablationVariants()
	cfgs := make([]sim.Config, len(variants))
	for i, v := range variants {
		cfgs[i] = v.cfg
	}
	cmps, err := s.compare(cfgs...)
	if err != nil {
		return nil, fmt.Errorf("experiments: ablation: %w", err)
	}
	res := &AblationResult{}
	for i, v := range variants {
		cmp := cmps[i]
		reached := 0
		for _, rep := range cmp.ActiveDR.Reports {
			if rep.TargetReached {
				reached++
			}
		}
		frac := 0.0
		if len(cmp.ActiveDR.Reports) > 0 {
			frac = float64(reached) / float64(len(cmp.ActiveDR.Reports))
		}
		res.Rows = append(res.Rows, AblationRow{
			Name:              v.name,
			Description:       v.desc,
			FLTMisses:         cmp.FLT.TotalMisses,
			ADRMisses:         cmp.ActiveDR.TotalMisses,
			Reduction:         cmp.MissReduction(),
			TargetReachedFrac: frac,
		})
		if v.name == "baseline" {
			for _, m := range archive.Models() {
				res.RestoreCosts = append(res.RestoreCosts, RestoreCostRow{
					Model:   m,
					FLT:     cmp.FLT.RestoreCost(m),
					ADR:     cmp.ActiveDR.RestoreCost(m),
					Savings: cmp.RestoreSavings(m),
				})
			}
		}
	}
	return res, nil
}

// Render writes the ablation and restore-cost tables.
func (r *AblationResult) Render(w io.Writer) {
	t := report.NewTable("Ablation: design choices of DESIGN.md §3",
		"Variant", "FLT misses", "ActiveDR misses", "Reduction", "Target met", "Description")
	for _, row := range r.Rows {
		t.AddRow(row.Name,
			fmt.Sprint(row.FLTMisses), fmt.Sprint(row.ADRMisses),
			report.Percent(row.Reduction),
			fmt.Sprintf("%.0f%%", 100*row.TargetReachedFrac),
			row.Description)
	}
	t.Render(w)
	c := report.NewTable("Miss cost: estimated archive-recall time (baseline variant)",
		"Archive model", "FLT", "ActiveDR", "ActiveDR saves")
	for _, row := range r.RestoreCosts {
		c.AddRow(row.Model.String(),
			row.FLT.Round(time.Minute).String(),
			row.ADR.Round(time.Minute).String(),
			row.Savings.Round(time.Minute).String())
	}
	c.Render(w)
}
