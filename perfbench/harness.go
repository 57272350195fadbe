package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Set-up is timed over at least minSetups and at most maxSetups builds,
// stopping once they took setupBudget; setup_s is their median and the
// last build is the one measured.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = time.Second
)

// warmup is how long the clients run their passes, untimed, before the
// measured window: the first seconds after set-up and the oracle run
// slower while the collector's pacing settles.
const warmup = 2 * time.Second

// probeWrites is the size of the closed-loop write burst that measures
// write latency: 1,000 writes leave ten samples beyond p99.
const probeWrites = 1000

// instance is one built system under test.
type instance interface {
	// oracle computes the reference answers with pruning off. It runs
	// after set-up and before the measured window, untimed.
	oracle(ctx context.Context) error
	// pass returns client c's fixed read list; one pass is one traversal.
	pass(c int) []read
	// burst issues probeWrites closed-loop one-triple writes through the
	// workload's write path, after the reads, and returns their latencies.
	burst(ctx context.Context) ([]time.Duration, error)
	// verify compares full row sets once per query outside the timed
	// window, returning the IDs that mismatched and how many queries it
	// compared.
	verify(ctx context.Context) (mismatched []string, compared int, err error)
	// layers decomposes read i of client 0's pass layer by layer, under
	// the request ID of its timed execution, into acc.
	layers(ctx context.Context, sl *spanLog, rq request, i int, acc *layerAcc) error
	// totals reports the per-layer metrics the instance measures over the
	// whole traced run rather than per query.
	totals(ctx context.Context) (map[string]float64, error)
	close() error
}

// openLoopWriter is an instance that also writes beside its reads: the
// writer runs until stop closes and returns each write's latency, timed
// from when the write was due.
type openLoopWriter interface {
	writer(ctx context.Context, stop <-chan struct{}) ([]time.Duration, error)
}

// startWriter runs inst's open-loop writer, if it has one, until the
// returned function is called; that function waits for the writer and
// returns its latencies and error.
func startWriter(ctx context.Context, inst instance) func() ([]time.Duration, error) {
	w, ok := inst.(openLoopWriter)
	if !ok {
		return func() ([]time.Duration, error) { return nil, nil }
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	var lat []time.Duration
	var err error
	go func() {
		defer close(done)
		lat, err = w.writer(ctx, stop)
	}()
	return func() ([]time.Duration, error) {
		close(stop)
		<-done
		return lat, err
	}
}

// read is one request of a pass. do reports whether the program served
// it from a cached plan, and fails with a wrongRows error when the row
// count differs from the oracle's.
type read struct {
	id string
	do func(ctx context.Context) (cacheHit bool, err error)
}

type wrongRows struct {
	id        string
	got, want int
}

func (e *wrongRows) Error() string {
	return fmt.Sprintf("%s: %d rows, oracle has %d", e.id, e.got, e.want)
}

func checkRows(id string, got, want int) error {
	if got != want {
		return &wrongRows{id: id, got: got, want: want}
	}
	return nil
}

// tally counts attempted and failed operations by query ID.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  map[string]int
}

func (t *tally) record(id string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if t.failures == nil {
		t.failures = make(map[string]int)
	}
	if t.failures[id] == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", id, err)
	}
	t.failures[id]++
}

func (t *tally) fill(r *result) {
	r.Attempted, r.Failed, r.failures = t.attempted, t.failed, t.failures
	r.Correct = t.failed == 0
}

// setUp builds the workload up to repeats times (see setupBudget),
// keeping the last build, and returns it with the median set-up time in
// seconds.
func setUp(ctx context.Context, wl *workload, cfg runConfig, repeats int) (instance, float64, error) {
	var inst instance
	var secs []float64
	var total float64
	for i := 0; i < repeats && (i < minSetups || total < setupBudget.Seconds()); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, 0, err
			}
			inst = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		inst, err = wl.setup(ctx, cfg.seed, cfg.dir)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		total += secs[i]
	}
	return inst, median(secs), nil
}

// runEndToEnd is the untraced run: set-up, warm-up and the closed-loop
// read window (beside the open-loop writer where the workload has one),
// the full row-set check, then the closed-loop write burst.
func runEndToEnd(ctx context.Context, wl *workload, cfg runConfig) (res *result, err error) {
	inst, setupS, err := setUp(ctx, wl, cfg, maxSetups)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := inst.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so pooled buffers do not count.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / 1e6
	if err := inst.oracle(ctx); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}

	t := &tally{}
	stopWriter := startWriter(ctx, inst)
	closedLoop(ctx, inst, wl.clients, cfg.seed, warmup, t)
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	passes, reads, elapsed := closedLoop(ctx, inst, wl.clients, cfg.seed, cfg.window, t)
	runtime.ReadMemStats(&ms)
	alloc1 := ms.TotalAlloc
	openLat, err := stopWriter()
	t.attempted += int64(len(openLat))
	if err != nil {
		t.record("open-loop write", err)
	}

	mismatched, compared, err := inst.verify(ctx)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	t.attempted += int64(compared - len(mismatched))
	for _, id := range mismatched {
		t.record(id+" (row set)", errors.New("row set differs from the oracle"))
	}
	writeLat, err := inst.burst(ctx)
	t.attempted += int64(len(writeLat))
	if err != nil {
		t.record("write", err)
	}
	if reads == 0 || len(passes) == 0 || len(writeLat) == 0 {
		return nil, fmt.Errorf("nothing completed: %d reads, %d passes, %d writes", reads, len(passes), len(writeLat))
	}

	res = &result{}
	t.fill(res)
	res.set("setup_s", setupS, "s")
	res.set("heap_mb", heapMB, "MB")
	res.set("reads_per_s", float64(reads)/elapsed.Seconds(), "1/s")
	res.set("pass_p50_ms", ms64(percentile(passes, 0.50)), "ms")
	res.set("write_p50_ms", ms64(percentile(writeLat, 0.50)), "ms")
	res.set("alloc_kb_per_read", float64(alloc1-alloc0)/1024/float64(reads), "KB")
	fmt.Printf("# %s seed %d: %d passes, %d reads in %.2fs; %d burst writes\n",
		wl.name, cfg.seed, len(passes), reads, elapsed.Seconds(), len(writeLat))
	fmt.Printf("# unbounded (see METRICS.md): pass_p90_ms %.4f, write p99 %.3f ms\n",
		ms64(percentile(passes, 0.90)), ms64(percentile(writeLat, 0.99)))
	if len(openLat) > 0 {
		fmt.Printf("# open-loop writer: %d writes, p50 %.3f ms, p99 %.3f ms from when due\n",
			len(openLat), ms64(percentile(openLat, 0.5)), ms64(percentile(openLat, 0.99)))
	}
	fmt.Print(describe(res.Metrics))
	return res, nil
}

// closedLoop runs clients goroutines, each traversing its pass back to
// back until the window has elapsed (a started pass completes). It
// returns every pass time, the completed reads and the elapsed time.
func closedLoop(ctx context.Context, inst instance, clients int, seed int64, window time.Duration, t *tally) ([]time.Duration, int64, time.Duration) {
	start := time.Now()
	deadline := start.Add(window)
	per := make([][]time.Duration, clients)
	reads := make([]int64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pass := rotate(inst.pass(c), seed+int64(c))
			for time.Now().Before(deadline) {
				p0 := time.Now()
				for _, r := range pass {
					_, err := r.do(ctx)
					t.record(r.id, err)
					reads[c]++
				}
				per[c] = append(per[c], time.Since(p0))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []time.Duration
	var n int64
	for c := range per {
		all = append(all, per[c]...)
		n += reads[c]
	}
	return all, n, elapsed
}

// rotate starts a pass at a seed-chosen read, keeping its cyclic order.
func rotate(pass []read, seed int64) []read {
	k := newRand(seed).Intn(len(pass))
	return append(append([]read(nil), pass[k:]...), pass[:k]...)
}

// percentile returns the nearest-rank q-quantile of ds (sorted in place).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	k := int(math.Ceil(q*float64(len(ds)))) - 1
	if k < 0 {
		k = 0
	}
	return ds[k]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms64(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us64(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
