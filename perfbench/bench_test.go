package main

import (
	"io"
	"testing"
)

// tiny is a seconds-long workload with every clusterer and every epoch
// kind, for tests.
var tiny = &workload{
	name:       "tiny",
	workers:    1,
	setupReps:  2,
	sweepReps:  2,
	inputsSpan: "data.deathvalley",
	inputs:     deathValley(200),
	deltas:     []float64{100, 300},
	sweep:      []clusterer{elinkImplicit, elinkExplicit, spectral, hierarchical, forest},
	replay: replaySpec{
		delta: 150, slack: 22.5, period: 4, epochs: 12,
		driftFrac: 0.05, jumpNodes: 2, snapshotEvery: 4,
		rangeQ: 3, pathQ: 3, radius: 75, gamma: 200,
	},
}

func tinyOpts(t *testing.T, seed int64) options {
	return options{seed: seed, scratch: t.TempDir()}
}

// exact lists the metrics that must repeat bit for bit at a given seed.
var exact = map[bool][]string{
	false: {"elink_msgs_per_node", "elink_clusters", "range_msgs_per_query"},
	true: {
		"baseline.spectral_clusters", "elink.implicit_msgs", "elink.explicit_msgs", "elink.rounds",
		"baseline.hier_msgs", "baseline.forest_msgs", "update.detaches", "stream.rebuilds",
		"stream.reclusters", "stream.maint_msgs", "stream.recluster_msgs", "persist.wal_bytes",
		"persist.snapshot_bytes", "query.range_prune_ratio", "query.path_msgs_per_query",
	},
}

func TestExactMetricsRepeat(t *testing.T) {
	for _, traced := range []bool{false, true} {
		measureFn := measure
		if traced {
			measureFn = measureTraced
		}
		var runs [2]*result
		for i := range runs {
			res, err := measureFn(tiny, tinyOpts(t, 7), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced=%v run %d: %d of %d operations failed", traced, i, res.Failed, res.Attempted)
			}
			runs[i] = res
		}
		if runs[0].Attempted != runs[1].Attempted {
			t.Errorf("traced=%v: attempted %d then %d", traced, runs[0].Attempted, runs[1].Attempted)
		}
		for _, name := range exact[traced] {
			a, ok := runs[0].Metrics[name]
			if !ok || a.Value == 0 {
				t.Errorf("traced=%v: %s missing or zero", traced, name)
			}
			if b := runs[1].Metrics[name]; a != b {
				t.Errorf("traced=%v: %s = %v then %v at the same seed", traced, name, a.Value, b.Value)
			}
		}
	}
}

// TestWritesIgnoreSeed pins that the seed draws only queries: the
// write path's counts repeat across seeds (see writeSeed).
func TestWritesIgnoreSeed(t *testing.T) {
	var runs [2]*result
	for i, seed := range []int64{3, 11} {
		res, err := measureTraced(tiny, tinyOpts(t, seed), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res
	}
	for _, name := range []string{"update.detaches", "stream.rebuilds", "stream.reclusters",
		"stream.maint_msgs", "stream.recluster_msgs", "persist.wal_bytes", "persist.snapshot_bytes"} {
		if a, b := runs[0].Metrics[name], runs[1].Metrics[name]; a != b {
			t.Errorf("%s = %v at seed 3, %v at seed 11", name, a.Value, b.Value)
		}
	}
	if a, b := runs[0].Metrics["query.path_msgs_per_query"], runs[1].Metrics["query.path_msgs_per_query"]; a == b {
		t.Errorf("query.path_msgs_per_query = %v at both seeds: the seed no longer draws the queries", a.Value)
	}
}

// TestTracedAttribution follows TestEpochSpanAttribution: the per-layer
// self-times must account for the traced wall time.
func TestTracedAttribution(t *testing.T) {
	res, err := measureTraced(tiny, tinyOpts(t, 3), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics["trace.attributed_pct"].Value; got < 95 || got > 100.5 {
		t.Errorf("span self-times cover %.2f%% of the traced wall, want 95-100%%", got)
	}
	for _, name := range []string{"baseline.spectral_s", "linalg.eigen_cpu_s", "index.refresh_ms",
		"index.rebuild_ms", "elink.recluster_ms", "query.clusters_ms", "query.classify_ms", "persist.snapshot_ms"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
}

// TestWorkloadSizes pins what the metric names promise: tails at p99
// with at least ten samples beyond, and every epoch kind present.
func TestWorkloadSizes(t *testing.T) {
	for name, w := range workloads {
		rs := w.replay
		for kind, n := range map[string]int{"range": rs.epochs * rs.rangeQ, "path": rs.epochs * rs.pathQ} {
			if q := tailQuantile(n); q != 0.99 {
				t.Errorf("%s: %d %s samples give p%g, want p99", name, n, kind, 100*q)
			}
		}
		if rs.epochs < 2*rs.period || rs.period%2 != 0 || 2*rs.slack >= rs.delta {
			t.Errorf("%s: script misses an epoch kind or breaks 2Δ < δ", name)
		}
	}
}
