package sim

import (
	"io"
	"testing"

	"activedr/internal/obs"
	"activedr/internal/synth"
	"activedr/internal/timeutil"
)

// The pair below is the observability overhead contract: with no
// Observer the replay takes the nil fast path (a dead branch per
// access and per purge decision), and with full instrumentation —
// registry, event stream, 100% audit — the atomic counters and pooled
// JSONL encoding must stay within a few percent of the baseline.
//
//	go test -bench 'Replay' -benchmem ./internal/sim/

func benchReplay(b *testing.B, o func() *obs.Observer) {
	ds := tinyDataset()
	cfg := Config{TargetUtilization: 0.5}
	em, err := New(ds, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, err := em.NewActiveDR()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := em.RunWith(pol, RunOptions{Obs: o()}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplayBare(b *testing.B) {
	benchReplay(b, func() *obs.Observer { return nil })
}

func BenchmarkReplayMetrics(b *testing.B) {
	benchReplay(b, func() *obs.Observer {
		o, err := obs.NewObserver(obs.NewRegistry(), nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		return o
	})
}

func BenchmarkReplayObserved(b *testing.B) {
	benchReplay(b, func() *obs.Observer {
		o, err := obs.NewObserver(obs.NewRegistry(), obs.NewEventWriter(io.Discard), 1)
		if err != nil {
			b.Fatal(err)
		}
		return o
	})
}

// BenchmarkBuildColFeed times the columnar feed build alone: the fixed
// cost a fresh Multiplexer or Emulator pays before the first event of
// its first batch replay applies.
//
//	go test -run '^$' -bench BuildColFeed -benchmem ./internal/sim/
func BenchmarkBuildColFeed(b *testing.B) {
	ds, err := synth.Generate(synth.Config{Seed: 9, Users: 400})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchFeed, err = buildColFeed(ds, timeutil.Week); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFeed keeps BenchmarkBuildColFeed's result live.
var benchFeed *colFeed
