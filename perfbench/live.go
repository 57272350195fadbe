package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dualsim"
	"dualsim/internal/queries"
)

const (
	// writeRate is the open-loop writer's schedule, in writes per second.
	// Each write makes the next read of every query re-plan; at this rate
	// about one pass in twenty does, so the pass percentiles stay within
	// the cached-read mode instead of straddling the two modes (at 50/s a
	// fifth of the passes re-planned, and a host that ran slower re-planned
	// a larger share, which doubled the run-to-run spread of pass_p90_ms).
	writeRate = 10
	// The writer checkpoints after every checkpointEvery-th write and
	// compacts after every compactEvery-th one instead. Compact is called
	// explicitly because the add/delete cycle keeps the overlay at one
	// delta, which no useful compaction threshold would cross.
	checkpointEvery = 50
	compactEvery    = 128
	// deltaCycle is how many distinct deltas the writer cycles through.
	deltaCycle = 8
)

// liveDurable runs a closed-loop L0–L5 reader beside an open-loop
// writer on a durable session (fsync'd WAL, periodic compaction and
// checkpoints) over LUBM with 10 universities. Write j adds delta
// (j/2) mod deltaCycle when j is even and deletes it again when j is
// odd, so every epoch's store is the base or the base plus one known
// delta (see stateOf), and every read is checked against the oracle of
// its own epoch.
type liveDurable struct {
	seed   int64
	dir    string
	specs  []queries.Spec
	db     *dualsim.DB
	deltas [][]dualsim.Triple
	// want[k][id]: state 0 is the base, state k+1 the base plus delta k.
	want    []map[string]answer
	lastAck atomic.Uint64 // epoch of the last acknowledged write
	cache0  dualsim.PlanCacheStats

	// Writer-side state, read after the writer has stopped.
	written  int // writes acknowledged
	walBytes int64
	// Per-write samples, in µs (overlay in triples).
	applyUs, compactUs, checkpointUs, fsyncUs, overlay []float64
	// Reader-side: DB.Query times of reads that re-planned.
	mu       sync.Mutex
	replanUs []float64
}

var liveDirs atomic.Int64

func setupLiveDurable(ctx context.Context, seed int64, outDir string) (instance, error) {
	specs, err := specsByID("L0", "L1", "L2", "L3", "L4", "L5")
	if err != nil {
		return nil, err
	}
	st, err := dualsim.GenerateLUBMStore(10, dataSeed)
	if err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(outDir)
	if err != nil {
		return nil, err
	}
	l := &liveDurable{seed: seed, specs: specs,
		dir: filepath.Join(abs, fmt.Sprintf("live-%d-%d", os.Getpid(), liveDirs.Add(1)))}
	if err := os.RemoveAll(l.dir); err != nil {
		return nil, err
	}
	l.deltas = liveDeltas(st, seed)
	l.db, err = dualsim.Open(st, dualsim.WithDataDir(l.dir), dualsim.WithPlanCache(64))
	if err != nil {
		return nil, err
	}
	for _, s := range specs {
		if _, _, err := l.db.Query(ctx, s.Text); err != nil {
			l.close()
			return nil, err
		}
	}
	return l, nil
}

// liveDeltas builds deltaCycle deltas, each a new graduate student
// copying every outgoing triple of a randomly chosen existing one —
// advisor, courses, teaching assistantships, membership, degree — so
// each delta changes the answers of the L queries.
func liveDeltas(st *dualsim.Store, seed int64) [][]dualsim.Triple {
	bySubject := make(map[string][]dualsim.Triple)
	var advised []string
	for _, t := range st.Triples() {
		if t.P == "ub:advisor" {
			advised = append(advised, t.S.Value)
		}
		bySubject[t.S.Value] = append(bySubject[t.S.Value], t)
	}
	slices.Sort(advised)
	advised = slices.Compact(advised)
	rng := newRand(seed)
	out := make([][]dualsim.Triple, deltaCycle)
	for k := range out {
		src := advised[rng.Intn(len(advised))]
		for _, t := range bySubject[src] {
			t.S = dualsim.IRI(fmt.Sprintf("perfbench:student%d", k))
			out[k] = append(out[k], t)
		}
	}
	return out
}

// delta is write j of the cycle: add delta (j/2) mod deltaCycle when j
// is even, delete it again when j is odd.
func (l *liveDurable) delta(j int) dualsim.Delta {
	d := l.deltas[(j/2)%deltaCycle]
	if j%2 == 1 {
		return dualsim.Delta{Dels: d}
	}
	return dualsim.Delta{Adds: d}
}

// epochAfter is the epoch published by write j: every write bumps the
// epoch, and so does each compaction before it.
func epochAfter(j int) uint64 { return uint64(j + 1 + j/compactEvery) }

// stateOf maps an epoch to its oracle state: 0 for the base, k+1 for the
// base plus delta k. After w writes the last one (w-1) was an add when w
// is odd.
func stateOf(epoch uint64) int {
	w := int(epoch) - int(epoch)/(compactEvery+1)
	if w%2 == 0 {
		return 0
	}
	return 1 + ((w-1)/2)%deltaCycle
}

// oracle evaluates the L queries with pruning off on a non-durable copy
// of the base store, and on the base plus each delta.
func (l *liveDurable) oracle(ctx context.Context) error {
	st, err := dualsim.GenerateLUBMStore(10, dataSeed)
	if err != nil {
		return err
	}
	ref, err := dualsim.Open(st, dualsim.WithPruning(false))
	if err != nil {
		return err
	}
	defer ref.Close()
	l.want = make([]map[string]answer, deltaCycle+1)
	for k := 0; k <= deltaCycle; k++ {
		if k > 0 {
			if _, err := ref.Apply(ctx, dualsim.Delta{Adds: l.deltas[k-1]}); err != nil {
				return err
			}
		}
		if l.want[k], err = oracleAnswers(ctx, ref.Store(), l.specs); err != nil {
			return err
		}
		if k > 0 {
			if _, err := ref.Apply(ctx, dualsim.Delta{Dels: l.deltas[k-1]}); err != nil {
				return err
			}
		}
	}
	l.cache0 = l.db.CacheStats()
	return nil
}

func (l *liveDurable) pass(int) []read {
	out := make([]read, len(l.specs))
	for i, s := range l.specs {
		id, src := s.ID, s.Text
		out[i] = read{id: id, do: func(ctx context.Context) (bool, error) {
			res, stats, err := l.db.Query(ctx, src)
			if err != nil {
				return false, err
			}
			return stats.CacheHit, checkRows(id, res.Len(), l.want[stateOf(stats.Epoch)][id].n)
		}}
	}
	return out
}

// writer is the open-loop writer: write j is due at j/writeRate seconds
// after the start, and its latency runs from when it was due. Its
// checkpoints and compactions run on the same schedule.
func (l *liveDurable) writer(ctx context.Context, stop <-chan struct{}) ([]time.Duration, error) {
	start := time.Now()
	var lat []time.Duration
	var lag []time.Duration
	for j := 0; ; j++ {
		due := start.Add(time.Duration(j) * time.Second / writeRate)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				l.report(lag)
				return lat, nil
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				l.report(lag)
				return lat, nil
			default:
			}
		}
		lag = append(lag, time.Since(due))
		t0 := time.Now()
		st, err := l.db.Apply(ctx, l.delta(j))
		if err != nil {
			return lat, err
		}
		applied := time.Since(t0)
		if st.Epoch != epochAfter(j) {
			return lat, fmt.Errorf("write %d published epoch %d, want %d", j, st.Epoch, epochAfter(j))
		}
		l.lastAck.Store(st.Epoch)
		l.written = j + 1
		l.applyUs = append(l.applyUs, us64(applied))
		l.fsyncUs = append(l.fsyncUs, us64(st.FsyncLatency))
		l.overlay = append(l.overlay, float64(st.OverlaySize))
		l.walBytes += st.WALBytes
		lat = append(lat, time.Since(due))
		switch {
		case (j+1)%compactEvery == 0:
			t0 := time.Now()
			cs, err := l.db.Compact(ctx)
			if err != nil {
				return lat, err
			}
			l.compactUs = append(l.compactUs, us64(time.Since(t0)))
			l.lastAck.Store(cs.Epoch)
		case (j+1)%checkpointEvery == 0:
			cs, err := l.db.Checkpoint(ctx)
			if err != nil {
				return lat, err
			}
			l.checkpointUs = append(l.checkpointUs, us64(cs.Duration))
		}
	}
}

func (l *liveDurable) report(lag []time.Duration) {
	fmt.Printf("# writer: %d writes at %d/s, start lag p50 %.3f ms p99 %.3f ms, %d compactions, %d checkpoints, flush policy fsync before ack\n",
		len(lag), writeRate, ms64(percentile(lag, 0.5)), ms64(percentile(lag, 0.99)), len(l.compactUs), len(l.checkpointUs))
}

// burst continues the writer's add/delete cycle closed-loop on the
// recovered durable session, once the reader and the open-loop writer
// have stopped: one fsync'd WAL record per write.
func (l *liveDurable) burst(ctx context.Context) ([]time.Duration, error) {
	lat := make([]time.Duration, 0, probeWrites)
	for j := l.written; j < l.written+probeWrites; j++ {
		t0 := time.Now()
		if _, err := l.db.Apply(ctx, l.delta(j)); err != nil {
			return lat, err
		}
		lat = append(lat, time.Since(t0))
	}
	return lat, nil
}

// verify is the durability check: it reads the L queries on the live
// session, closes it, recovers the data dir with OpenDir and requires
// the last acknowledged epoch and the same rows.
func (l *liveDurable) verify(ctx context.Context) ([]string, int, error) {
	live, err := l.rows(ctx)
	if err != nil {
		return nil, 0, err
	}
	acked := l.lastAck.Load()
	var bad []string
	for id, rows := range live {
		if len(rows) != l.want[stateOf(acked)][id].n {
			bad = append(bad, id+" (live)")
		}
	}
	if err := l.db.Close(); err != nil {
		return nil, 0, err
	}
	l.db = nil
	if l.db, err = dualsim.OpenDir(l.dir, dualsim.WithPlanCache(64)); err != nil {
		return nil, 0, fmt.Errorf("recovering %s: %w", l.dir, err)
	}
	if got := l.db.Epoch(); got != acked {
		fmt.Printf("# recovered epoch %d, last acknowledged %d\n", got, acked)
		bad = append(bad, "epoch (recovered)")
	}
	recovered, err := l.rows(ctx)
	if err != nil {
		return nil, 0, err
	}
	for id, rows := range live {
		if !slices.Equal(rows, recovered[id]) {
			bad = append(bad, id+" (recovered)")
		}
	}
	slices.Sort(bad)
	return bad, 2*len(live) + 1, nil
}

func (l *liveDurable) rows(ctx context.Context) (map[string][]string, error) {
	out := make(map[string][]string, len(l.specs))
	for _, s := range l.specs {
		res, _, err := l.db.Query(ctx, s.Text)
		if err != nil {
			return nil, err
		}
		out[s.ID] = canonResult(l.db.Store(), res)
	}
	return out, nil
}

func (l *liveDurable) layers(ctx context.Context, sl *spanLog, rq request, i int, acc *layerAcc) error {
	s := l.specs[i]
	snap := l.db.Snapshot()
	pt, err := decompose(ctx, sl, rq.id, snap.Store(), s.ID, s.Text, l.want[stateOf(snap.Epoch())][s.ID].n, acc)
	if err != nil {
		return err
	}
	addQueryTime(acc, s.ID, rq.dur, rq.cacheHit, pt)
	if !rq.cacheHit {
		l.mu.Lock()
		l.replanUs = append(l.replanUs, us64(rq.dur))
		l.mu.Unlock()
	}
	return nil
}

func (l *liveDurable) totals(context.Context) (map[string]float64, error) {
	c := l.db.CacheStats()
	hits, misses := c.Hits-l.cache0.Hits, c.Misses-l.cache0.Misses
	writes := len(l.applyUs)
	return map[string]float64{
		"dualsim.plancache_hit_rate":  float64(hits) / float64(max(hits+misses, 1)),
		"dualsim.replan_us":           median(l.replanUs),
		"dualsim.apply_us":            median(l.applyUs),
		"dualsim.compact_us":          median(l.compactUs),
		"dualsim.checkpoint_us":       median(l.checkpointUs),
		"delta.overlay_size":          median(l.overlay),
		"persist.fsync_us":            median(l.fsyncUs),
		"persist.wal_bytes_per_write": float64(l.walBytes) / float64(max(writes, 1)),
	}, nil
}

func (l *liveDurable) close() error {
	var errs []error
	if l.db != nil {
		errs = append(errs, l.db.Close())
	}
	errs = append(errs, os.RemoveAll(l.dir))
	return errors.Join(errs...)
}
