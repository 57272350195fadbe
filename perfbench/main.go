// Command perfbench is the repository benchmark. It generates its
// inputs from a seed, drives one named workload against the program's
// public entry points for a fixed number of seconds, checks every
// answer against a pruning-off oracle, and prints one JSON result line.
//
//	perfbench --workload paper-suite --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, measured by spans the
// benchmark opens around its own calls into each layer (the program
// itself is not instrumented). METRICS.md lists every metric, the
// workload it belongs to and the end-to-end metric it should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// dataSeed is the generator seed of every dataset. It is fixed so that
// runs with different --seed values measure the same data (LUBM with 30
// universities has 66,679 triples, KG at scale 10 86,035, LUBM with 10
// universities 18,618, KG at scale 2 17,377); --seed varies the order in
// which each client walks its pass and the written triples.
const dataSeed = 42

// workload is one named traffic mix. setup builds a fresh system under
// test from the seed; the runner calls it several times to time set-up.
type workload struct {
	name    string
	clients int
	setup   func(ctx context.Context, seed int64, dir string) (instance, error)
}

var workloads = []workload{
	{name: "paper-suite", clients: 1, setup: setupPaperSuite},
	{name: "serve-wire", clients: 2, setup: setupServeWire},
	{name: "live-durable", clients: 1, setup: setupLiveDurable},
	{name: "routed-gather", clients: 1, setup: setupRoutedGather},
}

func main() {
	name := flag.String("workload", "", "workload name: paper-suite, serve-wire, live-durable or routed-gather")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 25, "length of the measured window")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	outDir := flag.String("out", ".bench_build", "directory for the span dump and the durable workload's data")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, dir: *outDir}
	var res *result
	var err error
	if *traced == 1 {
		res, err = runTraced(context.Background(), wl, cfg)
	} else {
		res, err = runEndToEnd(context.Background(), wl, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

type runConfig struct {
	seed   int64
	window time.Duration
	dir    string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	failures map[string]int // query ID → failed operations
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // a ratio over an empty base; JSON cannot carry NaN
	}
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// print writes the human-readable failure summary and then the JSON
// result as the last line.
func (r *result) print(f *os.File) {
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(f, "# failed_frac %.6f (%d of %d operations)\n", frac, r.Failed, r.Attempted)
	ids := make([]string, 0, len(r.failures))
	for id := range r.failures {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(f, "# FAILED %s: %d operations\n", id, r.failures[id])
	}
	b, _ := json.Marshal(r) // only NaN/Inf can fail, and set never stores them
	fmt.Fprintln(f, string(b))
}

// describe formats a metric map as aligned "# name value unit" lines.
func describe(ms map[string]metric) string {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "# %-28s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
	return b.String()
}
