package main

import (
	"math"

	"elink/internal/baseline"
	"elink/internal/cluster"
	"elink/internal/data"
	"elink/internal/detrand"
	"elink/internal/elink"
	"elink/internal/metric"
	"elink/internal/topology"
)

// workload is one fixed script. The topology, the features, the δ
// sweep and the replay's writes are part of the workload and do not
// depend on the seed: the sweep runs every clusterer with the figure
// harness's seed (sweepSeed), so it repeats Fig 9's work exactly, and
// the engine and the write script use writeSeed. The seed drives every
// query of the replay. That keeps the cost of the work the same from
// seed to seed, while no two seeds ask the same queries.
type workload struct {
	name string
	why  string
	// layerMap lines read "layer metric -> end-to-end metric it should move".
	layerMap []string
	// workers is the internal/par worker count, pinned rather than
	// inherited from GOMAXPROCS or ELINK_WORKERS. Only dv500-fig9 uses
	// two: its sweep is the phase-parallel dense eigensolver's, and one
	// worker would stretch a run past 60 s.
	workers int
	// setupReps set-ups run before the timed part; setup_s is their median.
	setupReps int
	// sweepReps sweeps run; sweep_s is their median. Only serve-rgg10k's
	// 3-s sweep repeats: run once, its IQR over ten runs reached 0.19 of
	// the median while the same ELink calls inside recluster epochs, a
	// median of ten, stayed under 0.09.
	sweepReps int
	// inputsSpan names the layer that builds the inputs (the set-up's
	// first span).
	inputsSpan string
	inputs     func() (*inputs, error)
	deltas     []float64
	sweep      []clusterer
	replay     replaySpec
}

// inputs is a workload's network: graph, features and their metric.
type inputs struct {
	g     *topology.Graph
	feats []metric.Feature
	m     metric.Metric
}

// clusterer is one algorithm of the δ sweep. name is also its span and
// per-layer metric prefix.
type clusterer struct {
	name string
	run  func(in *inputs, delta float64, seed int64) (*cluster.Result, error)
}

// replaySpec shapes the scripted serving replay.
type replaySpec struct {
	delta, slack float64
	// period is the periodic recluster policy's interval in epochs.
	period int
	epochs int
	// driftFrac of the nodes move within ±driftSlack·slack of their base
	// every epoch: a refresh epoch.
	driftFrac float64
	// Every period/2-th epoch, the nodes that jumped last time return to
	// their base and jumpNodes others move their base by 3δ; both
	// detach. Every other jump lands on a recluster epoch, so each
	// recluster cycle holds one rebuild epoch, at its midpoint. Returning
	// keeps the replay stationary: when jumps accumulated instead, the
	// 10k-node engine's cluster count grew from 368 to about 670 over 80
	// epochs and its rebuild epochs from 12 to 280 ms, so their p50
	// depended on how fast a seed's clusters grew.
	jumpNodes int
	// snapshotEvery epochs the engine saves a snapshot (temp file +
	// rename, WAL truncated through it), as elink-serve -data-dir does.
	snapshotEvery int
	// rangeQ range and pathQ path queries follow every epoch.
	rangeQ, pathQ int
	// radius of range queries, gamma (safety margin) of path queries.
	radius, gamma float64
}

// driftSlack keeps every drifted feature within 0.4Δ of its base, so two
// values of one node never differ by more than 0.8Δ and drift alone is
// always screened by the slack protocol.
const driftSlack = 0.4

var (
	elinkImplicit = clusterer{"elink.implicit", func(in *inputs, d float64, seed int64) (*cluster.Result, error) {
		return elink.Run(in.g, elink.Config{Delta: d, Metric: in.m, Features: in.feats, Mode: elink.Implicit, Seed: seed})
	}}
	elinkExplicit = clusterer{"elink.explicit", func(in *inputs, d float64, seed int64) (*cluster.Result, error) {
		return elink.Run(in.g, elink.Config{Delta: d, Metric: in.m, Features: in.feats, Mode: elink.Explicit, Seed: seed})
	}}
	spectral = clusterer{"baseline.spectral", func(in *inputs, d float64, seed int64) (*cluster.Result, error) {
		return baseline.Spectral(in.g, baseline.SpectralConfig{Delta: d, Metric: in.m, Features: in.feats, Seed: seed})
	}}
	hierarchical = clusterer{"baseline.hier", func(in *inputs, d float64, _ int64) (*cluster.Result, error) {
		return baseline.Hierarchical(in.g, baseline.HierConfig{Delta: d, Metric: in.m, Features: in.feats})
	}}
	forest = clusterer{"baseline.forest", func(in *inputs, d float64, seed int64) (*cluster.Result, error) {
		return baseline.SpanningForest(in.g, baseline.ForestConfig{Delta: d, Metric: in.m, Features: in.feats, Seed: seed})
	}}
)

// deathValley returns the Fig 9 topology of the harness (its first
// topology, data seed 1) at n nodes.
func deathValley(n int) func() (*inputs, error) {
	return func() (*inputs, error) {
		ds, err := data.DeathValley(data.DeathValleyConfig{Nodes: n, Seed: 1})
		if err != nil {
			return nil, err
		}
		return &inputs{g: ds.Graph, feats: ds.Features, m: ds.Metric}, nil
	}
}

// sweepSeed is the seed cmd/elink-experiments passes every clusterer.
const sweepSeed = 1

// writeSeed seeds the engine's ELink and the replay's writes (which
// nodes drift, by how much, and which jump). Writes do not follow the
// run's seed because an index rebuild's cost depends on the whole
// write history: topology.Graph's shared route cache keeps 256 BFS
// tables while the 10k-node engine has 440-520 cluster roots, so a
// rebuild ran 5 to 164 BFS passes (10 to 120 ms) depending on which
// tables earlier epochs had left in the cache. With seeded writes the
// share of slow rebuilds was a draw of the seed: in a trial with three
// rebuilds per recluster cycle, rebuild_epoch_p50_ms read 13 ms on one
// seed and 40 ms on another. Queries do not touch the route cache.
const writeSeed = 1

// fig9Deltas is data.DeathValley's δ sweep (Fig 9's x-axis).
var fig9Deltas = []float64{50, 100, 150, 200, 300, 400}

// rgg10k is a 10,000-node random geometric graph (average degree 5,
// unit density) carrying a smooth scalar field: four plane waves with
// seeded directions and phases, values within [0, 100].
func rgg10k() (*inputs, error) {
	const n = 10000
	rng := detrand.New(10000)
	g := topology.RandomGeometricForDegree(n, 5, rng)
	side := math.Sqrt(n)
	amps := []float64{20, 15, 10, 5}
	type wave struct{ kx, ky, phase float64 }
	waves := make([]wave, len(amps))
	for i := range waves {
		freq := float64(i+1) * 2 * math.Pi / side
		theta := rng.Float64() * 2 * math.Pi
		waves[i] = wave{freq * math.Cos(theta), freq * math.Sin(theta), rng.Float64() * 2 * math.Pi}
	}
	feats := make([]metric.Feature, n)
	for u, p := range g.Pos {
		v := 50.0
		for i, w := range waves {
			v += amps[i] * math.Sin(w.kx*p.X+w.ky*p.Y+w.phase)
		}
		feats[u] = metric.Feature{v}
	}
	return &inputs{g: g, feats: feats, m: metric.Scalar{}}, nil
}

var workloads = map[string]*workload{
	"dv500-fig9": {
		name: "dv500-fig9",
		why: "Fig 9's delta sweep at medium scale with all five clusterers; the centralized spectral baseline " +
			"(internal/baseline + internal/linalg) is ~99% of the sweep, the in-network algorithms under 1%",
		layerMap: []string{
			"data.deathvalley_ms -> setup_s",
			"baseline.spectral_s, linalg.eigen_cpu_s, linalg.kmeans_cpu_s -> sweep_s",
			"baseline.spectral_clusters (exact) -> none; Fig 9's centralized series",
			"elink.*, baseline.hier_*, baseline.forest_* -> sweep_s (under 1%: should not move)",
			"stream/update/index/query/persist -> epoch and query metrics of the 500-node replay",
			"go.alloc_mb, go.gc_cycles, go.gc_pause_ms -> sweep_s, range_p99_ms, path_p99_ms",
		},
		workers:    2,
		setupReps:  41,
		sweepReps:  1,
		inputsSpan: "data.deathvalley",
		inputs:     deathValley(500),
		deltas:     fig9Deltas,
		sweep:      []clusterer{elinkImplicit, elinkExplicit, spectral, hierarchical, forest},
		// 480 epochs give 60 recluster epochs of 5-12 ms each; with 30,
		// recluster_epoch_p50_ms spread 0.20-0.29 of its median over ten
		// runs.
		replay: replaySpec{
			delta: 150, slack: 22.5, period: 8, epochs: 480,
			driftFrac: 0.05, jumpNodes: 2, snapshotEvery: 10,
			rangeQ: 7, pathQ: 7, radius: 75, gamma: 200,
		},
	},
	"dv2500-innet": {
		name: "dv2500-innet",
		why: "the same sweep at the paper's 2500 nodes without the spectral baseline; ELink, hierarchical and " +
			"spanning forest over internal/sim and internal/topology dominate, internal/linalg does no work",
		layerMap: []string{
			"data.deathvalley_ms -> setup_s",
			"elink.implicit_s, elink.explicit_s, baseline.hier_s, baseline.forest_s -> sweep_s",
			"sim.cpu_s, topology.cpu_s -> sweep_s, recluster_epoch_p50_ms",
			"elink.*_msgs, elink.rounds, baseline.*_msgs (exact) -> elink_msgs_per_node, elink_clusters",
			"linalg.* -> none (no work here: should not move)",
			"stream/update/index/query/persist -> epoch and query metrics of the 2500-node replay",
			"go.alloc_mb, go.gc_cycles, go.gc_pause_ms -> sweep_s, range_p99_ms, path_p99_ms",
		},
		workers:    1,
		setupReps:  9,
		sweepReps:  1,
		inputsSpan: "data.deathvalley",
		inputs:     deathValley(2500),
		deltas:     fig9Deltas,
		sweep:      []clusterer{elinkImplicit, elinkExplicit, hierarchical, forest},
		replay: replaySpec{
			delta: 150, slack: 22.5, period: 8, epochs: 80,
			driftFrac: 0.05, jumpNodes: 4, snapshotEvery: 10,
			rangeQ: 13, pathQ: 13, radius: 75, gamma: 200,
		},
	},
	"serve-rgg10k": {
		name: "serve-rgg10k",
		why: "a scripted 10k-node serving replay (feature-mode stream.Engine, periodic recluster, WAL, snapshots) " +
			"with range and path queries after every epoch; stream, update, index, query, persist and elink dominate",
		layerMap: []string{
			"topology.rgg_ms, stream.bootstrap_ms -> setup_s",
			"update.maintain_ms -> refresh_epoch_tmean_ms, rebuild_epoch_p50_ms",
			"index.refresh_ms -> refresh_epoch_tmean_ms; index.rebuild_ms -> rebuild_epoch_p50_ms",
			"elink.recluster_ms, index.build_ms, sim.cpu_s, topology.cpu_s -> recluster_epoch_p50_ms",
			"persist.wal_append_ms, stream.publish_ms -> every epoch metric; persist.snapshot_ms -> epochs_per_s",
			"query.backbone_ms, query.clusters_ms, query.aggregate_ms -> range_p50_ms, range_p99_ms",
			"query.classify_ms, query.search_ms -> path_p50_ms, path_p99_ms",
			"query.range_first_p99_ms, query.path_first_p99_ms -> range_p99_ms, path_p99_ms (single-shot tails)",
			"go.alloc_mb, go.gc_cycles, go.gc_pause_ms -> range_p99_ms, path_p99_ms, epochs_per_s",
			"elink.implicit_s -> sweep_s (ELink-only sweep at 10k nodes)",
		},
		workers:    1,
		setupReps:  3,
		sweepReps:  3,
		inputsSpan: "topology.rgg",
		inputs:     rgg10k,
		deltas:     []float64{10, 20, 40},
		sweep:      []clusterer{elinkImplicit},
		replay: replaySpec{
			delta: 20, slack: 3, period: 8, epochs: 80,
			driftFrac: 0.05, jumpNodes: 10, snapshotEvery: 10,
			rangeQ: 13, pathQ: 13, radius: 3, gamma: 15,
		},
	},
}
