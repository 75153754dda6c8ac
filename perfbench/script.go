package main

import (
	"math"
	"math/rand"
	"slices"

	"elink/internal/detrand"
	"elink/internal/metric"
	"elink/internal/stream"
	"elink/internal/topology"
)

// epochOps is one epoch of the replay script: the feature batch, then
// the queries run against the snapshot it publishes.
type epochOps struct {
	batch  []stream.FeatureUpdate
	ranges []rangeOp
	paths  []pathOp
}

type rangeOp struct {
	q         metric.Feature
	r         float64
	initiator topology.NodeID
}

type pathOp struct {
	danger   metric.Feature
	gamma    float64
	src, dst topology.NodeID
}

// safeNode draws a node whose base feature keeps a margin of twice gamma
// from danger, so that every path query reaches the safe-region search
// instead of returning early on an unsafe endpoint (which would make the
// latency distribution bimodal). The doubled margin keeps the endpoint
// safe under drift.
func safeNode(rng *rand.Rand, base []float64, danger, gamma float64) topology.NodeID {
	u := rng.Intn(len(base))
	for tries := 1; tries < len(base) && math.Abs(base[u]-danger) < 2*gamma; tries++ {
		u = rng.Intn(len(base))
	}
	return topology.NodeID(u)
}

// makeScript derives the replay's operations from the workload's fixed
// scalar features and two seeds: writeSeed decides which nodes drift and
// by how much and which jump, seed decides every query's target, radius
// and endpoints.
func makeScript(feats []metric.Feature, rs replaySpec, seed int64) []epochOps {
	rng, qrng := detrand.New(writeSeed), detrand.New(seed)
	n := len(feats)
	home := make([]float64, n)
	for u, f := range feats {
		home[u] = f[0]
	}
	base := slices.Clone(home)
	var jumped []int
	drift := int(rs.driftFrac * float64(n))
	script := make([]epochOps, rs.epochs)
	for e := range script {
		ep := &script[e]
		perm := rng.Perm(n)
		for _, u := range perm[:drift] {
			v := base[u] + (2*rng.Float64()-1)*driftSlack*rs.slack
			ep.batch = append(ep.batch, stream.FeatureUpdate{Node: topology.NodeID(u), Feature: metric.Feature{v}})
		}
		if (e+1)%(rs.period/2) == 0 {
			for _, u := range jumped {
				base[u] = home[u]
				ep.batch = append(ep.batch, stream.FeatureUpdate{Node: topology.NodeID(u), Feature: metric.Feature{base[u]}})
			}
			jumped = perm[drift : drift+rs.jumpNodes]
			for _, u := range jumped {
				step := 3 * rs.delta
				if rng.Intn(2) == 0 {
					step = -step
				}
				base[u] += step
				ep.batch = append(ep.batch, stream.FeatureUpdate{Node: topology.NodeID(u), Feature: metric.Feature{base[u]}})
			}
		}
		for i := 0; i < rs.rangeQ; i++ {
			q := base[qrng.Intn(n)] + (2*qrng.Float64()-1)*rs.radius
			ep.ranges = append(ep.ranges, rangeOp{q: metric.Feature{q}, r: rs.radius, initiator: topology.NodeID(qrng.Intn(n))})
		}
		for i := 0; i < rs.pathQ; i++ {
			danger := base[qrng.Intn(n)]
			ep.paths = append(ep.paths, pathOp{
				danger: metric.Feature{danger}, gamma: rs.gamma,
				src: safeNode(qrng, base, danger, rs.gamma), dst: safeNode(qrng, base, danger, rs.gamma),
			})
		}
	}
	return script
}
