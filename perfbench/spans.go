package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans caps the in-memory span log; later spans are counted, not kept.
const maxSpans = 1 << 20

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req; a root span has Parent 0. Counts carries the
// operator counters of op.* spans.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent,omitempty"`
	Req    int64            `json:"req"`
	Name   string           `json:"name"`
	Start  int64            `json:"startNs"`
	End    int64            `json:"endNs"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	t0      time.Time
	next    atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// id allocates a span or request ID.
func (l *spanLog) id() int64 { return l.next.Add(1) }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return
	}
	l.spans = append(l.spans, s)
}

// record logs a finished span under a preallocated ID.
func (l *spanLog) record(id, parent, req int64, name string, start, end time.Time) {
	l.add(span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds()})
}

// timed runs fn inside a new span and returns its duration.
func (l *spanLog) timed(req, parent int64, name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	l.record(l.id(), parent, req, name, start, end)
	return end.Sub(start), err
}

// mark records a zero-length span carrying counters at the current time.
func (l *spanLog) mark(req, parent int64, name string, counts map[string]int64) {
	at := time.Since(l.t0).Nanoseconds()
	l.add(span{ID: l.id(), Parent: parent, Req: req, Name: name, Start: at, End: at, Counts: counts})
}

// selfTimes sums each span name's self time: its duration minus the
// durations of its children.
func (l *spanLog) selfTimes() map[string]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[int64]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range l.spans {
		out[s.Name] += time.Duration(s.End - s.Start - children[s.ID])
	}
	return out
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// request is one timed read of a traced pass.
type request struct {
	id       int64
	dur      time.Duration
	cacheHit bool
}

// layerAcc collects per-query layer values: summed per pass (the
// per-layer metric is the median over passes of those sums) and kept per
// query for the per-query table.
type layerAcc struct {
	cur      map[string]float64
	passes   []map[string]float64
	perQuery map[string]map[string][]float64
	order    []string
}

func newLayerAcc() *layerAcc {
	return &layerAcc{cur: make(map[string]float64), perQuery: make(map[string]map[string][]float64)}
}

// add adds v to the current pass's sum of name and to query id's samples.
func (a *layerAcc) add(id, name string, v float64) {
	a.cur[name] += v
	q := a.perQuery[id]
	if q == nil {
		q = make(map[string][]float64)
		a.perQuery[id] = q
		a.order = append(a.order, id)
	}
	q[name] = append(q[name], v)
}

func (a *layerAcc) endPass() {
	a.passes = append(a.passes, a.cur)
	a.cur = make(map[string]float64)
}

// queryMedian returns the median of query id's samples of name.
func (a *layerAcc) queryMedian(id, name string) float64 { return median(a.perQuery[id][name]) }

// ratios are per-layer metrics formed per pass as a quotient of two sums.
var ratios = map[string][2]string{
	"prune.kept_frac":      {"prune.kept", "prune.total"},
	"engine.rows_per_next": {"engine.rows", "engine.next_calls"},
}

// medians returns, for every summed name and every ratio, the median
// over passes.
func (a *layerAcc) medians() map[string]float64 {
	series := make(map[string][]float64)
	for _, p := range a.passes {
		for name, v := range p {
			series[name] = append(series[name], v)
		}
		for name, nd := range ratios {
			if p[nd[1]] > 0 {
				series[name] = append(series[name], p[nd[0]]/p[nd[1]])
			}
		}
	}
	out := make(map[string]float64, len(series))
	for name, s := range series {
		out[name] = median(s)
	}
	return out
}

// runTraced is the traced run: one client alternates an untraced pass
// with a traced one (each read inside a span), and after every traced
// pass decomposes its reads layer by layer. Writes run as in the
// untraced run: the open-loop writer beside the reads, the burst after.
func runTraced(ctx context.Context, wl *workload, cfg runConfig) (res *result, err error) {
	inst, _, err := setUp(ctx, wl, cfg, 1)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := inst.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if err := inst.oracle(ctx); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	t := &tally{}
	sl := newSpanLog()
	acc := newLayerAcc()
	stopWriter := startWriter(ctx, inst)
	pass := inst.pass(0)
	reqs := make([]request, len(pass))
	var plain, traced []time.Duration
	deadline := time.Now().Add(cfg.window)
	for time.Now().Before(deadline) {
		p0 := time.Now()
		for _, r := range pass {
			_, err := r.do(ctx)
			t.record(r.id, err)
		}
		plain = append(plain, time.Since(p0))

		p0 = time.Now()
		for i, r := range pass {
			rq := request{id: sl.id()}
			var err error
			rq.dur, err = sl.timed(rq.id, 0, "request", func() error {
				var derr error
				rq.cacheHit, derr = r.do(ctx)
				return derr
			})
			t.record(r.id, err)
			reqs[i] = rq
		}
		traced = append(traced, time.Since(p0))
		for i, r := range pass {
			t.record(r.id+" (layers)", inst.layers(ctx, sl, reqs[i], i, acc))
		}
		acc.endPass()
	}
	openLat, err := stopWriter()
	t.attempted += int64(len(openLat))
	if err != nil {
		t.record("open-loop write", err)
	}
	writeLat, err := inst.burst(ctx)
	t.attempted += int64(len(writeLat))
	if err != nil {
		t.record("write", err)
	}

	tot, err := inst.totals(ctx)
	if err != nil {
		return nil, err
	}
	med := acc.medians()
	med["prune.pays_frac"] = paysFrac(acc)
	res = &result{}
	t.fill(res)
	for _, m := range perLayer {
		v, ok := tot[m.name]
		if !ok {
			v = med[m.name]
		}
		res.set(m.name, v, m.unit)
	}
	res.set("write.p99_ms", ms64(percentile(writeLat, 0.99)), "ms")
	res.set("write.open_p50_ms", ms64(percentile(openLat, 0.50)), "ms")
	res.set("write.open_p99_ms", ms64(percentile(openLat, 0.99)), "ms")
	tracedP50 := ms64(percentile(traced, 0.5))
	res.set("trace.pass_p50_ms", tracedP50, "ms")
	res.set("trace.overhead_ms", tracedP50-ms64(percentile(plain, 0.5)), "ms")

	fmt.Printf("# %s seed %d traced: %d traced passes, %d spans (%d dropped)\n",
		wl.name, cfg.seed, len(traced), len(sl.spans), sl.dropped)
	printSelfTimes(sl.selfTimes(), len(traced))
	if wl.name == "paper-suite" {
		printPerQuery(acc)
	}
	fmt.Print(describe(res.Metrics))
	path := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, cfg.seed))
	if err := sl.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}

// paysFrac is the share of queries whose pruned path (solve, mask,
// restrict, compile, drain) beats compiling and draining the unpruned
// store, comparing per-query medians; its base is every decomposed query.
func paysFrac(acc *layerAcc) float64 {
	if len(acc.order) == 0 {
		return 0
	}
	pays := 0
	for _, id := range acc.order {
		if acc.queryMedian(id, "pruned_path_us") < acc.queryMedian(id, "engine.full_drain_us") {
			pays++
		}
	}
	return float64(pays) / float64(len(acc.order))
}

func printSelfTimes(self map[string]time.Duration, passes int) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Println("# self time per traced pass (span duration minus its children):")
	for _, n := range names {
		fmt.Printf("#   %-22s %10.3f ms\n", n, ms64(self[n])/float64(max(passes, 1)))
	}
}

// printPerQuery prints the pruning trade-off of every suite query:
// per-query medians over passes, in µs.
func printPerQuery(acc *layerAcc) {
	fmt.Println("# per query (median µs): solve mask restrict drain | pruned-path full_drain pays")
	var sums [6]float64
	for _, id := range acc.order {
		v := [6]float64{
			acc.queryMedian(id, "soi.solve_us"), acc.queryMedian(id, "prune.mask_us"),
			acc.queryMedian(id, "storage.restrict_us"), acc.queryMedian(id, "engine.drain_us"),
			acc.queryMedian(id, "pruned_path_us"), acc.queryMedian(id, "engine.full_drain_us"),
		}
		for k := range v {
			sums[k] += v[k]
		}
		fmt.Printf("#   %-4s %9.1f %9.1f %9.1f %9.1f | %9.1f %9.1f %v\n", id, v[0], v[1], v[2], v[3], v[4], v[5], v[4] < v[5])
	}
	fmt.Printf("#   sum  %9.1f %9.1f %9.1f %9.1f | %9.1f %9.1f\n", sums[0], sums[1], sums[2], sums[3], sums[4], sums[5])
}
