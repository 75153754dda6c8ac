package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"
)

// measure runs the workload's script once untraced and returns the
// end-to-end metrics.
func measure(w *workload, opts options, out io.Writer) (*result, error) {
	b := newBench(w, opts, nil)
	defer b.teardown()
	if err := b.setup(w.setupReps); err != nil {
		return nil, err
	}
	b.timed()
	b.teardown()
	b.report(out)

	n := float64(len(w.deltas) * len(b.sweepSec))
	imp := b.calls[elinkImplicit.name]
	if imp == nil {
		imp = &callTotals{}
	}
	m := map[string]value{
		"setup_s":                {median(b.setupSec), "s"},
		"max_rss_mb":             {maxRSSMB(), "MB"},
		"sweep_s":                {median(b.sweepSec), "s"},
		"elink_msgs_per_node":    {float64(imp.msgs) / n / float64(b.in.g.N()), "msgs/node"},
		"elink_clusters":         {float64(imp.clusters) / n, "count"},
		"epochs_per_s":           {float64(b.epochs) / b.writeSec, "1/s"},
		"refresh_epoch_tmean_ms": {trimmedMean(b.epochMs[kindRefresh]), "ms"},
		"rebuild_epoch_p50_ms":   {quantile(b.epochMs[kindRebuild], 0.5), "ms"},
		"recluster_epoch_p50_ms": {quantile(b.epochMs[kindRecluster], 0.5), "ms"},
		"range_p50_ms":           {quantile(b.rangeMs, 0.5), "ms"},
		"range_p99_ms":           {quantile(b.rangeMs, 0.99), "ms"},
		"path_p50_ms":            {quantile(b.pathMs, 0.5), "ms"},
		"path_p99_ms":            {quantile(b.pathMs, 0.99), "ms"},
		"range_msgs_per_query":   {float64(b.rangeMsgs) / float64(max(1, len(b.rangeMs))), "msgs"},
	}
	return b.result(m), nil
}

// measureTraced runs the script once traced — spans around every call
// and a CPU profile — then set-up and script again bare, and returns the
// per-layer metrics. The tracing overhead compares the two scripts' wall
// times, each run right after a set-up and the warm-up.
func measureTraced(w *workload, opts options, out io.Writer) (*result, error) {
	tr := newTracer()
	t := newBench(w, opts, tr)
	defer t.teardown()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	start := time.Now()
	err := t.setup(1)
	var traced time.Duration
	if err == nil {
		runtime.ReadMemStats(&before)
		traced = t.timed()
		runtime.ReadMemStats(&after)
	}
	wall := time.Since(start)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	t.teardown()

	b := newBench(w, opts, nil)
	defer b.teardown()
	if err := b.setup(1); err != nil {
		return nil, err
	}
	bare := b.timed()
	b.teardown()
	cpu, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	t.report(out)
	fmt.Fprintf(out, "# traced: bare script %.3fs, traced script %.3fs, traced wall %.3fs, span self-time %.3fs\n",
		bare.Seconds(), traced.Seconds(), wall.Seconds(), float64(tr.selfSum())/1e9)

	sweeps := float64(len(t.sweepSec))
	nd := float64(len(w.deltas)) * sweeps
	epochs := float64(t.epochs)
	perRoot := func(group, span string) float64 { // mean self ms per root of group
		return float64(tr.self[group+"/"+span]) / 1e6 / float64(max(1, tr.roots[group]))
	}
	call := func(name string) *callTotals {
		if c := t.calls[name]; c != nil {
			return c
		}
		return &callTotals{}
	}
	epochSum := func(m map[string]int64, span string) float64 { // replay epochs only, bootstrap excluded
		return float64(sumBySpan(m, span) - m["setup/"+span])
	}
	s := t.engineStats
	m := map[string]value{
		"data.deathvalley_ms":        {float64(tr.dur["setup/data.deathvalley"]) / 1e6, "ms"},
		"topology.rgg_ms":            {float64(tr.dur["setup/topology.rgg"]) / 1e6, "ms"},
		"stream.bootstrap_ms":        {float64(tr.dur["setup/stream.bootstrap"]) / 1e6, "ms"},
		"baseline.spectral_s":        {call(spectral.name).sec / sweeps, "s"},
		"baseline.spectral_clusters": {float64(call(spectral.name).clusters) / nd, "count"},
		"linalg.eigen_cpu_s":         {cpu.under["eigen"], "s"},
		"linalg.kmeans_cpu_s":        {cpu.under["kmeans"], "s"},
		"elink.implicit_s":           {call(elinkImplicit.name).sec / sweeps, "s"},
		"elink.explicit_s":           {call(elinkExplicit.name).sec / sweeps, "s"},
		"elink.implicit_msgs":        {float64(call(elinkImplicit.name).msgs) / sweeps, "msgs"},
		"elink.explicit_msgs":        {float64(call(elinkExplicit.name).msgs) / sweeps, "msgs"},
		"elink.rounds":               {call(elinkImplicit.name).rounds / nd, "rounds"},
		"sim.cpu_s":                  {cpu.selfByPkg["elink/internal/sim"], "s"},
		"topology.cpu_s":             {cpu.selfByPkg["elink/internal/topology"], "s"},
		"baseline.hier_s":            {call(hierarchical.name).sec / sweeps, "s"},
		"baseline.forest_s":          {call(forest.name).sec / sweeps, "s"},
		"baseline.hier_msgs":         {float64(call(hierarchical.name).msgs) / sweeps, "msgs"},
		"baseline.forest_msgs":       {float64(call(forest.name).msgs) / sweeps, "msgs"},
		"update.maintain_ms":         {epochSum(tr.self, "maintain") / 1e6 / epochs, "ms"},
		"index.refresh_ms":           {perRoot(kindRefresh, "index"), "ms"},
		"index.rebuild_ms":           {perRoot(kindRebuild, "index"), "ms"},
		"elink.recluster_ms":         {perRoot(kindRecluster, "elink-run"), "ms"},
		"index.build_ms":             {perRoot(kindRecluster, "index-build"), "ms"},
		"persist.wal_append_ms":      {epochSum(tr.dur, "journal") / 1e6 / epochs, "ms"},
		"stream.publish_ms":          {epochSum(tr.self, "publish") / 1e6 / epochs, "ms"},
		"persist.snapshot_ms":        {mean(t.snapMs), "ms"},
		"update.detaches":            {float64(t.detaches), "count"},
		"stream.rebuilds":            {float64(s.IndexRebuilds), "count"},
		"stream.reclusters":          {float64(s.Reclusters), "count"},
		"stream.maint_msgs":          {float64(s.MaintenanceMsgs), "msgs"},
		"stream.recluster_msgs":      {float64(s.ReclusterMsgs), "msgs"},
		"persist.wal_bytes":          {float64(t.walBytes), "bytes"},
		"persist.snapshot_bytes":     {float64(t.snapBytes), "bytes"},
		"query.backbone_ms":          {perRoot("range", "q-backbone"), "ms"},
		"query.clusters_ms":          {perRoot("range", "q-clusters"), "ms"},
		"query.aggregate_ms":         {perRoot("range", "q-aggregate"), "ms"},
		"query.classify_ms":          {perRoot("path", "q-classify"), "ms"},
		"query.search_ms":            {perRoot("path", "q-search"), "ms"},
		"query.range_first_p99_ms":   {quantile(t.rangeFirstMs, 0.99), "ms"},
		"query.path_first_p99_ms":    {quantile(t.pathFirstMs, 0.99), "ms"},
		"query.range_prune_ratio":    {float64(t.pruned) / float64(max(1, t.pruned+t.searched)), "ratio"},
		"query.path_msgs_per_query":  {float64(t.pathMsgs) / float64(max(1, len(t.pathMs))), "msgs"},
		"go.alloc_mb":                {float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20), "MB"},
		"go.gc_cycles":               {float64(after.NumGC - before.NumGC), "count"},
		"go.gc_pause_ms":             {float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6, "ms"},
		"bench.check_s":              {float64(sumBySpan(tr.dur, "bench.check")) / 1e9, "s"},
		"trace.overhead_pct":         {100 * (traced.Seconds()/bare.Seconds() - 1), "%"},
		"trace.attributed_pct":       {100 * float64(tr.selfSum()) / float64(wall.Nanoseconds()), "%"},
	}
	res := t.result(m)
	res.Attempted += b.attempted
	res.Failed += b.failed
	res.Correct = res.Failed == 0
	return res, nil
}

// report prints the sample counts behind every percentile and the first
// failed check, if any.
func (b *bench) report(out io.Writer) {
	fmt.Fprintf(out, "# samples: setups=%d sweeps=%d epochs refresh=%d rebuild=%d recluster=%d snapshots=%d range=%d path=%d\n",
		len(b.setupSec), len(b.sweepSec), len(b.epochMs[kindRefresh]), len(b.epochMs[kindRebuild]),
		len(b.epochMs[kindRecluster]), len(b.snapMs), len(b.rangeMs), len(b.pathMs))
	fmt.Fprintf(out, "# tail percentile: range p%g, path p%g (highest with at least ten samples beyond it)\n",
		100*tailQuantile(len(b.rangeMs)), 100*tailQuantile(len(b.pathMs)))
	fmt.Fprintf(out, "# engine: %d nodes, bootstrap clusters=%d at delta=%g slack=%g\n",
		b.in.g.N(), b.bootClusters, b.w.replay.delta, b.w.replay.slack)
	if b.firstFailure != nil {
		fmt.Fprintf(out, "# first failed check: %v\n", b.firstFailure)
	}
}

func (b *bench) result(m map[string]value) *result {
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
}

// quantile is the nearest-rank q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// trimmedMean is the mean of xs without its lowest and highest tenth
// (NaN when empty). Refresh epochs report it instead of a median: a
// refresh epoch takes 2-4 ms, so each samples the host at one instant,
// and on a shared 2-vCPU x86-64 VM the samples split into two modes
// about 1.5x apart (every phase of the epoch slower at once). The
// median jumps between the modes as their shares move from run to run:
// over three runs it spread 2.9-3.8 ms while the sweep of the same runs
// moved 13%. The mean moves in proportion to the shares, and trimming a
// tenth on each side keeps 5-30 ms vCPU pauses out of it.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := len(s) / 10
	return mean(s[k : len(s)-k])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailQuantile is the highest of p99.9, p99, p95 and p90 that leaves at
// least ten of n samples beyond it.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9} {
		if n-int(math.Ceil(q*float64(n))) >= 10 {
			return q
		}
	}
	return 0.5
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
