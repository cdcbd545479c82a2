package retention

import (
	"fmt"
	"testing"
	"time"

	"activedr/internal/activeness"
	"activedr/internal/randx"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

// buildPurgeFS builds an n-file namespace with atimes spread over the
// 200 days before tc, so a 90-day lifetime leaves roughly half the
// files stale at the trigger.
func buildPurgeFS(b *testing.B, n int, tc timeutil.Time) (*vfs.FS, int) {
	b.Helper()
	nUsers := 50
	if n >= 100_000 {
		nUsers = 500
	}
	if n >= 1_000_000 {
		nUsers = 2000
	}
	src := randx.New(42)
	fsys := vfs.New()
	for i := 0; i < n; i++ {
		u := trace.UserID(src.Intn(nUsers))
		path := fmt.Sprintf("/lustre/atlas/u%05d/proj%d/run%04d/out%07d.dat",
			int(u), src.Intn(4), i/256, i)
		err := fsys.Insert(path, vfs.FileMeta{
			User: u, Size: int64(1 + src.Intn(1<<20)),
			ATime: tc.Add(-timeutil.Days(src.Intn(200))),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return fsys, nUsers
}

// BenchmarkPurgeTrigger times one FLT purge trigger over a namespace
// of 10k/100k/1M files. Each iteration purges a clone of the prebuilt
// state (clone time excluded), so every trigger sees the same stale
// set.
func BenchmarkPurgeTrigger(b *testing.B) {
	tc := timeutil.Date(2016, time.August, 23)
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("files=%d", n), func(b *testing.B) {
			if n >= 1_000_000 && testing.Short() {
				b.Skip("builds a million-file namespace")
			}
			base, nUsers := buildPurgeFS(b, n, tc)
			ranks := make([]activeness.Rank, nUsers)
			flt := &FLT{Lifetime: timeutil.Days(90)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				work := base.Clone()
				b.StartTimer()
				rep := flt.Purge(work, ranks, tc)
				if rep.PurgedFiles == 0 {
					b.Fatal("trigger purged nothing")
				}
			}
		})
	}
}

// BenchmarkPlan times one ActiveDR dry-run plan (target utilization
// 0.5) over a namespace of 10k/100k files: the work behind the
// daemon's /v1/plan and /v1/victims. The plan leaves the namespace as
// it was, so every iteration plans the same state.
func BenchmarkPlan(b *testing.B) {
	tc := timeutil.Date(2016, time.August, 23)
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("files=%d", n), func(b *testing.B) {
			fsys, nUsers := buildPurgeFS(b, n, tc)
			ranks := make([]activeness.Rank, nUsers)
			adr, err := NewActiveDR(Config{
				Lifetime:          timeutil.Days(90),
				Capacity:          fsys.TotalBytes(),
				TargetUtilization: 0.5,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep := Plan(adr, fsys, ranks, tc); rep.PurgedFiles == 0 {
					b.Fatal("plan purged nothing")
				}
			}
		})
	}
}
