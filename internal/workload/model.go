package workload

// The fitted workload model: a TraceTracker-style compression of a
// loaded trace into per-user archetype parameters plus an exact
// per-user sketch of the snapshot namespace. The model is small (a
// few hundred bytes per user), serializes as JSON, and is everything
// Regen needs to reproduce the trace statistically — at 1x or at a
// 10-100x user-scale multiplier.

import (
	"encoding/json"
	"fmt"
	"os"

	"activedr/internal/timeutil"
)

// ModelVersion guards the serialized format.
const ModelVersion = 1

// Stratum is one age band of a user's snapshot files, sorted by age.
// Count and Bytes are exact — regeneration reproduces the user's file
// count and byte mass to the byte, which is what pins per-policy purge
// totals (ActiveDR's target is a fraction of total bytes; FLT's
// initial purge wave is the files older than the lifetime, bounded by
// the strata age ranges).
// TouchedCount/TouchedBytes split out the files the trace re-accessed
// at least once: regeneration confines re-reads to a subset with that
// exact count and mass, so the bytes the lifetime purge can never
// rescue match the source instead of riding on which heavy-tailed
// file a random pick happens to warm.
type Stratum struct {
	Count        int     `json:"count"`
	Bytes        int64   `json:"bytes"`
	TouchedCount int     `json:"touched_count"`
	TouchedBytes int64   `json:"touched_bytes"`
	AgeLoDays    float64 `json:"age_lo_days"`
	AgeHiDays    float64 `json:"age_hi_days"`
}

// WeekActivity is one active trace week of a user's cadence vector:
// how many jobs the week saw and their total core-hour impact.
type WeekActivity struct {
	Week      int     `json:"week"`
	Jobs      int     `json:"jobs"`
	CoreHours float64 `json:"core_hours"`
}

// Gap-histogram bucket edges, in days since the file's previous
// access. The edges are fixed by the format (not by any simulator
// lifetime), so the mass a given retention lifetime can never rescue
// is readable from the histogram for any lifetime choice.
var gapBucketEdgesDays = [...]float64{1, 7, 30, 90, 180, 365}

// NumGapBuckets is len(edges)+1: a final open bucket catches gaps
// beyond the last edge.
const NumGapBuckets = len(gapBucketEdgesDays) + 1

// gapBucket buckets a per-file re-read gap in days.
func gapBucket(gapDays float64) int {
	for i, e := range gapBucketEdgesDays {
		if gapDays < e {
			return i
		}
	}
	return NumGapBuckets - 1
}

// GapBucket is one bucket of a user's per-file re-read gap histogram:
// how many re-reads arrived after a gap in this band, and how many
// bytes they touched. Regeneration paces its re-read picks through
// the histogram, so the long-gap "resurrection" mass — the dominant
// driver of miss/restore churn under any retention lifetime — is
// reproduced instead of redrawn.
type GapBucket struct {
	Count int   `json:"count"`
	Bytes int64 `json:"bytes"`
}

// UserModel is one user's fitted archetype.
type UserModel struct {
	Name string `json:"name"`

	// Cadence: what fraction of trace weeks had at least one job, the
	// user's activeness vector (regen replays it verbatim — the rank
	// formula Φ zeroes on any empty period and weighs per-period
	// impact ratios, so dormancy windows and per-week core-hour mass
	// must line up with the source, not just their means), and how the
	// active weeks looked on average.
	ActiveWeekFrac    float64        `json:"active_week_frac"`
	Cadence           []WeekActivity `json:"cadence,omitempty"`
	JobsPerActiveWeek float64        `json:"jobs_per_active_week"`
	MeanCores         float64        `json:"mean_cores"`
	MeanDurationH     float64        `json:"mean_duration_h"`

	// File behavior: touches per job, the fraction of touches that
	// create fresh files, the exact byte mass those creates wrote
	// (regen rescales its create sizes to it — created bytes dominate
	// purge totals, so they are pinned rather than redrawn), and the
	// inter-access gap quantiles (days) of the user's access log.
	TouchesPerJob float64 `json:"touches_per_job"`
	CreateFrac    float64 `json:"create_frac"`
	CreatedBytes  int64   `json:"created_bytes"`
	GapP50Days    float64 `json:"gap_p50_days"`
	GapP90Days    float64 `json:"gap_p90_days"`

	// GapHist is the per-file re-read gap histogram (empty or exactly
	// NumGapBuckets buckets).
	GapHist []GapBucket `json:"gap_hist,omitempty"`

	// MeanStripes is the user's mean snapshot stripe count.
	MeanStripes float64 `json:"mean_stripes"`

	// Strata sketch the user's snapshot files by age.
	Strata []Stratum `json:"strata,omitempty"`
}

// Files returns the user's exact snapshot file count.
func (u *UserModel) Files() int {
	n := 0
	for _, s := range u.Strata {
		n += s.Count
	}
	return n
}

// Activeness class labels, in increasing-cadence order.
const (
	ClassDormant = "dormant"
	ClassCasual  = "casual"
	ClassSteady  = "steady"
	ClassPower   = "power"
)

// Class buckets the user by job cadence. The thresholds are absolute,
// not quantiles, so refitting a regenerated trace reproduces the
// class shares whenever the cadence parameters are reproduced — the
// reconstruction-fidelity acceptance check leans on that.
func (u *UserModel) Class() string {
	switch {
	case u.ActiveWeekFrac < 0.05:
		return ClassDormant
	case u.ActiveWeekFrac < 0.30:
		return ClassCasual
	case u.ActiveWeekFrac < 0.70:
		return ClassSteady
	default:
		return ClassPower
	}
}

// Model is the fitted workload.
type Model struct {
	Version int    `json:"version"`
	Source  string `json:"source,omitempty"` // provenance note, free-form
	// Taken is the source snapshot capture time; regenerated traces
	// replay the same window.
	Taken timeutil.Time `json:"taken"`
	// SpanDays is the trace window length after Taken.
	SpanDays int         `json:"span_days"`
	Users    []UserModel `json:"users"`
}

// ClassShares tallies the fraction of users in each activeness class.
func (m *Model) ClassShares() map[string]float64 {
	shares := map[string]float64{}
	if len(m.Users) == 0 {
		return shares
	}
	for i := range m.Users {
		shares[m.Users[i].Class()]++
	}
	for k := range shares {
		shares[k] /= float64(len(m.Users))
	}
	return shares
}

// Validate rejects models Regen cannot honor.
func (m *Model) Validate() error {
	if m.Version != ModelVersion {
		return fmt.Errorf("workload: model version %d, want %d", m.Version, ModelVersion)
	}
	if len(m.Users) == 0 {
		return fmt.Errorf("workload: model has no users")
	}
	if m.SpanDays < 1 {
		return fmt.Errorf("workload: model span %d days, want >= 1", m.SpanDays)
	}
	for i := range m.Users {
		u := &m.Users[i]
		if u.ActiveWeekFrac < 0 || u.ActiveWeekFrac > 1 {
			return fmt.Errorf("workload: user %q active-week fraction %v out of [0,1]", u.Name, u.ActiveWeekFrac)
		}
		weeks := (m.SpanDays + 6) / 7
		for k, wa := range u.Cadence {
			if wa.Week < 0 || wa.Week >= weeks {
				return fmt.Errorf("workload: user %q active week %d outside the %d-week span", u.Name, wa.Week, weeks)
			}
			if k > 0 && wa.Week <= u.Cadence[k-1].Week {
				return fmt.Errorf("workload: user %q cadence weeks not strictly increasing at %d", u.Name, wa.Week)
			}
			if wa.Jobs < 1 || wa.CoreHours < 0 {
				return fmt.Errorf("workload: user %q cadence week %d invalid (%d jobs, %v core-hours)",
					u.Name, wa.Week, wa.Jobs, wa.CoreHours)
			}
		}
		if u.CreateFrac < 0 || u.CreateFrac > 1 {
			return fmt.Errorf("workload: user %q create fraction %v out of [0,1]", u.Name, u.CreateFrac)
		}
		for _, s := range u.Strata {
			if s.Count < 0 || s.Bytes < 0 || s.AgeLoDays < 0 || s.AgeHiDays < s.AgeLoDays {
				return fmt.Errorf("workload: user %q has an invalid stratum %+v", u.Name, s)
			}
			if s.TouchedCount < 0 || s.TouchedCount > s.Count || s.TouchedBytes < 0 || s.TouchedBytes > s.Bytes {
				return fmt.Errorf("workload: user %q has an invalid touched split %+v", u.Name, s)
			}
		}
		if n := len(u.GapHist); n != 0 && n != NumGapBuckets {
			return fmt.Errorf("workload: user %q gap histogram has %d buckets, want %d", u.Name, n, NumGapBuckets)
		}
		for _, b := range u.GapHist {
			if b.Count < 0 || b.Bytes < 0 {
				return fmt.Errorf("workload: user %q has a negative gap bucket %+v", u.Name, b)
			}
		}
	}
	return nil
}

// SaveModel writes the model as indented JSON.
func SaveModel(path string, m *Model) (err error) {
	if err := m.Validate(); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// LoadModel reads and validates a serialized model.
func LoadModel(path string) (*Model, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Model
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("workload: %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("workload: %s: %w", path, err)
	}
	return &m, nil
}
