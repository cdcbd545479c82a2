package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; the smoke test holds the two in
// step.
type metricDef struct {
	name  string
	unit  string
	lower bool    // true when a smaller value is better
	bound float64 // end-to-end only: share of the median it may worsen by
}

// The workloads, in the order runs and comparisons list them.
const (
	wlSweep4  = "sweep4-tsv"
	wlCompare = "compare-snap"
	wlDaemon  = "daemon-feed"
)

var workloadNames = []string{wlSweep4, wlCompare, wlDaemon}

// endToEnd are the metrics a user of each journey sees, reported by
// every workload from untraced samples. The daemon's read latency is
// seen on daemon-feed only, so it is a per-layer metric (daemon.*).
// Each bound is at least three times the widest run-to-run spread
// measured over ten seeds (README, Noise): daemon-feed's, 7.4% for
// replay_eps and 8.1% for peak_rss_mb.
var endToEnd = []metricDef{
	{"setup_s", "s", true, 0.25},
	{"replay_eps", "ev/s", false, 0.25},
	{"peak_rss_mb", "MB", true, 0.25},
}

// perLayer are the single-layer metrics a --trace 1 run prints. Every
// workload measures every time among them: in its journey where the
// journey makes the call, otherwise standalone on the same inputs in
// the floors child (see measureFloors). The daemon.* read latencies
// are the open-loop reads of daemon-feed, contending with the ingest;
// the batch workloads ask the same reads of an idle daemon on their
// initial state in the floors child. Counts and sizes may read 0
// where a layer does no work, as WAL counts do on the batch journeys.
// Counts and sizes read "lower is better" as work done for the same
// result; only the purge scan's yield reads higher.
var perLayer = []metricDef{
	{"trace.load_s", "s", true, 0},
	{"trace.rows", "count", true, 0},
	{"trace.raw_mb", "MB", true, 0},
	{"trace.inflate_floor_s", "s", true, 0},
	{"vfs.base_s", "s", true, 0},
	{"vfs.files", "count", true, 0},
	{"vfs.touches", "count", true, 0},
	{"vfs.inserts", "count", true, 0},
	{"vfs.stale_queries", "count", true, 0},
	{"sim.new_s", "s", true, 0},
	{"sim.checkpoint_s", "s", true, 0},
	{"sim.checkpoints", "count", true, 0},
	{"sim.triggers", "count", true, 0},
	{"sim.accesses", "count", true, 0},
	{"sim.misses", "count", true, 0},
	{"activeness.rank_s", "s", true, 0},
	{"activeness.rank_calls", "count", true, 0},
	{"retention.purge_s", "s", true, 0},
	{"retention.examined", "count", true, 0},
	{"retention.purged_files", "count", true, 0},
	{"retention.select_yield", "ratio", false, 0},
	{"wal.records", "count", true, 0},
	{"wal.syncs", "count", true, 0},
	{"wal.retries", "count", true, 0},
	{"io.write_mb", "MB", true, 0},
	{"daemon.rejected", "count", true, 0},
	{"daemon.query_p50_ms", "ms", true, 0},
	{"daemon.query_p90_ms", "ms", true, 0},
	{"daemon.status_p50_ms", "ms", true, 0},
	{"daemon.ranks_p50_ms", "ms", true, 0},
	{"daemon.plan_p50_ms", "ms", true, 0},
	{"daemon.victims_p50_ms", "ms", true, 0},
	{"go.alloc_mb", "MB", true, 0},
	{"go.mallocs", "count", true, 0},
	{"go.gc_cycles", "count", true, 0},
	{"host.ref_ms", "ms", true, 0},
}

// journeyLayers are timings only some journeys have. They go to the
// result file and the trace summary, not to the printed line, where a
// workload without the layer would read a constant 0.
var journeyLayers = []metricDef{
	{"vfs.snap_open_s", "s", true, 0},           // compare-snap
	{"vfs.snap_load_s", "s", true, 0},           // compare-snap
	{"sim.mux_run_s", "s", true, 0},             // sweep4-tsv
	{"sim.stream_apply_s", "s", true, 0},        // compare-snap, traced
	{"sim.trigger_s", "s", true, 0},             // compare-snap, traced
	{"daemon.new_s", "s", true, 0},              // daemon-feed
	{"daemon.ingest_rtt_p50_ms", "ms", true, 0}, // daemon-feed
	{"loadgen.lag_p90_ms", "ms", true, 0},       // the reads behind daemon.*
	{"bench.trace_overhead_pct", "%", true, 0},  // batch journeys
	{"bench.unattributed_pct", "%", true, 0},    // batch journeys
}
