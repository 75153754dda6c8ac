// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload in its own process:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every workload is a fixed amount of work, so --seconds is accepted but
// changes nothing. Every workload has the same parts, so that every
// workload reports every end-to-end metric: a set-up (topology, features
// and the streaming engine's bootstrap), then a δ sweep over the
// workload's clusterers with a replay of scripted epochs against a
// feature-mode stream.Engine spread over it, each epoch followed by a
// batch of range and path queries. The workloads differ in scale and in which clusterers the
// sweep runs, which decides the layer that dominates. The replay script
// is a pure function of the seed: its writes are fixed per workload and
// the seed draws its queries. A single goroutine drives everything
// as a closed loop and the internal/par worker count is pinned per
// workload, so every count repeats exactly at a given seed and only
// timings vary. Every operation is checked outside the timed intervals;
// a failed check counts against the operations attempted.
//
// With --trace 0 the last line of stdout is a JSON object holding the
// end-to-end metrics. With --trace 1 the run makes the workload's script
// once with spans around every call and a CPU profile, then set-up and
// script again bare, and the JSON holds the per-layer metrics and the
// tracing overhead. The lines before the JSON record the host, the seed,
// why the workload exists and which end-to-end metric each per-layer
// metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"elink/internal/par"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	seed    int64
	scratch string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the replay's queries")
	seconds := fs.Int("seconds", 45, "run length in seconds; ignored, every workload is a fixed amount of work")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
	scratch := fs.String("scratch", ".bench_build/run", "directory for the engine's WAL and snapshots")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	opts := options{seed: *seed, scratch: *scratch}
	par.SetWorkers(w.workers)

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d trace=%d\n", w.name, opts.seed, *trace)
	fmt.Fprintf(stdout, "# host nproc=%d GOMAXPROCS=%d par_workers=%d go=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), par.Workers(), runtime.Version())
	fmt.Fprintf(stdout, "# why: %s\n", w.why)
	for _, l := range w.layerMap {
		fmt.Fprintf(stdout, "# layer %s\n", l)
	}

	var res *result
	var err error
	if *trace == 1 {
		res, err = measureTraced(w, opts, stdout)
	} else {
		res, err = measure(w, opts, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
