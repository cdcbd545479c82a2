package main

import (
	"encoding/json"
	"math"
	"testing"
)

// TestEndToEndAtReferenceSpeed checks that the same work read on a host
// running at half and at full reference speed reports the same
// end-to-end timings, and that the replay rate counts each dataset's
// own events.
func TestEndToEndAtReferenceSpeed(t *testing.T) {
	at := func(dataset, events int, host, setup, replay float64) *sample {
		return &sample{Dataset: dataset, Events: events, SetupS: setup, ReplayS: replay, RSSMB: 100,
			Layer: map[string]float64{"host.ref_ms": host}}
	}
	samples := []*sample{
		at(0, 1000, hostRefMs, 0.5, 2),
		at(0, 1000, 2*hostRefMs, 1, 4),
		at(1, 3000, hostRefMs, 0.5, 2),
		at(1, 3000, 2*hostRefMs, 1, 4),
	}
	m := endToEndSummaries(samples)
	for name, want := range map[string]float64{"setup_s": 0.5, "replay_eps": (500 + 1500) / 2.0,
		"setup_wall_s": 0.75, "replay_wall_s": 3} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestPerLayerWithoutBaseline checks that a traced run whose untraced
// samples all failed on the traced dataset still yields a result that
// encodes: no overhead share against a missing baseline, and no
// unattributed share of a zero wall time.
func TestPerLayerWithoutBaseline(t *testing.T) {
	untraced := []*sample{{Dataset: 1, WallS: 2, Layer: map[string]float64{}}}
	traced := []*sample{{Dataset: 0, WallS: 2.1, Layer: map[string]float64{}}}
	out := perLayerSummaries(wlSweep4, untraced, traced, nil)
	for _, name := range []string{"bench.trace_overhead_pct", "bench.unattributed_pct"} {
		if s, ok := out[name]; ok {
			t.Errorf("%s = %+v, want it left out", name, s)
		}
	}
	if _, err := json.Marshal(out); err != nil {
		t.Fatalf("per-layer metrics do not encode: %v", err)
	}
	r := &result{PerLayer: out}
	if _, err := json.Marshal(r.contractLine(true)); err != nil {
		t.Fatalf("result line does not encode: %v", err)
	}
}
