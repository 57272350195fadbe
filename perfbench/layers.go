package main

import (
	"context"
	"runtime/metrics"
	"time"

	"dualsim"
	"dualsim/internal/core"
	"dualsim/internal/engine"
	"dualsim/internal/plan"
	"dualsim/internal/prune"
	"dualsim/internal/sparql"
)

// layerMetric is one per-layer metric of the traced run. A layer the
// workload does not reach reports 0.
type layerMetric struct{ name, unit string }

// perLayer lists the traced run's metrics in BENCHMARK.json order;
// METRICS.md says which end-to-end metric each should move.
var perLayer = []layerMetric{
	{"sparql.parse_us", "us"},
	{"core.plan_us", "us"},
	{"core.inequalities", "count"},
	{"soi.solve_us", "us"},
	{"soi.rounds", "count"},
	{"soi.evaluations", "count"},
	{"soi.chi_candidates", "count"},
	{"prune.mask_us", "us"},
	{"prune.kept_frac", "ratio"},
	{"prune.pays_frac", "ratio"},
	{"storage.restrict_us", "us"},
	{"storage.restrict_alloc_kb", "KB"},
	{"engine.compile_us", "us"},
	{"engine.drain_us", "us"},
	{"engine.next_calls", "count"},
	{"engine.rows_per_next", "ratio"},
	{"engine.full_drain_us", "us"},
	{"dualsim.query_us", "us"},
	{"dualsim.other_us", "us"},
	{"dualsim.plancache_hit_rate", "ratio"},
	{"dualsim.replan_us", "us"},
	{"dualsim.apply_us", "us"},
	{"dualsim.compact_us", "us"},
	{"dualsim.checkpoint_us", "us"},
	{"delta.overlay_size", "count"},
	{"persist.fsync_us", "us"},
	{"persist.wal_bytes_per_write", "bytes"},
	{"server.handler_us", "us"},
	{"server.encode_us", "us"},
	{"server.response_kb", "KB"},
	{"client.roundtrip_us", "us"},
	{"client.decode_us", "us"},
	{"client.transport_us", "us"},
	{"router.request_us", "us"},
	{"router.gather_frac", "ratio"},
	{"router.export_us", "us"},
	{"router.exported_triples", "count"},
	{"router.other_us", "us"},
	{"write.p99_ms", "ms"},
	{"write.open_p50_ms", "ms"},
	{"write.open_p99_ms", "ms"},
	{"trace.pass_p50_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// solverConfig is the default session's solver configuration.
var solverConfig = core.Config{}

// pipelineTimes are one decomposed execution's layer times.
type pipelineTimes struct {
	parsePlan time.Duration // parse + plan: what a plan-cache hit skips
	executed  time.Duration // solve + mask + restrict + compile + drain
}

// decompose runs one query through the default session's pipeline one
// layer entry point at a time over st — parse, plan, then the prune
// stage (solve, mask, restrict) and the evaluate stage (compile, drain)
// — and, for comparison, compiles and drains the unpruned store. Spans
// carry the program's stage names. It fails if either execution's row
// count differs from want.
func decompose(ctx context.Context, sl *spanLog, req int64, st *dualsim.Store, id, src string, want int, acc *layerAcc) (pipelineTimes, error) {
	var pt pipelineTimes
	root, pruneStage, evalStage, drainSpan := sl.id(), sl.id(), sl.id(), sl.id()

	t0 := time.Now()
	q, err := sparql.Parse(src)
	t1 := time.Now()
	if err != nil {
		return pt, err
	}
	qp, err := core.BuildQueryPlan(st, q, solverConfig)
	if err != nil {
		return pt, err
	}
	qp.Finalize()
	t2 := time.Now()

	rel, err := qp.SolveRestricted(ctx, solverConfig, nil)
	t3 := time.Now()
	if err != nil {
		return pt, err
	}
	chi := 0
	for _, bs := range rel.Branches {
		for _, v := range bs.Sol.Chi {
			if v != nil {
				chi += v.Count()
			}
		}
	}
	t3b := time.Now()
	pr, err := prune.PruneCtx(ctx, st, rel)
	t4 := time.Now()
	rel.Release()
	if err != nil {
		return pt, err
	}
	a0 := allocBytes()
	t4b := time.Now()
	pruned := pr.Store()
	t5 := time.Now()
	restrictAlloc := allocBytes() - a0

	t5b := time.Now()
	ex, err := engine.Compile(pruned, q, plan.Options{})
	t6 := time.Now()
	if err != nil {
		return pt, err
	}
	res, err := engine.Drain(ctx, ex)
	t7 := time.Now()
	if err != nil {
		return pt, err
	}
	var nextCalls int64
	for _, op := range ex.Operators() {
		nextCalls += op.NextCalls
		sl.mark(req, drainSpan, "op."+op.Op, map[string]int64{"rows": op.Rows, "nextCalls": op.NextCalls})
	}

	t7b := time.Now()
	full, err := engine.Compile(st, q, plan.Options{})
	if err != nil {
		return pt, err
	}
	fullRes, err := engine.Drain(ctx, full)
	t8 := time.Now()
	if err != nil {
		return pt, err
	}

	sl.record(sl.id(), root, req, "parse", t0, t1)
	sl.record(sl.id(), root, req, "plan", t1, t2)
	sl.record(sl.id(), pruneStage, req, "soi.solve", t2, t3)
	sl.record(sl.id(), pruneStage, req, "prune.mask", t3b, t4)
	sl.record(sl.id(), pruneStage, req, "storage.restrict", t4b, t5)
	sl.record(pruneStage, root, req, "prune", t2, t5)
	sl.record(sl.id(), evalStage, req, "engine.compile", t5b, t6)
	sl.record(drainSpan, evalStage, req, "engine.drain", t6, t7)
	sl.record(evalStage, root, req, "evaluate", t5b, t7)
	sl.record(sl.id(), root, req, "evaluate.unpruned", t7b, t8)
	sl.record(root, 0, req, "pipeline", t0, t8)

	if err := checkRows(id, res.Len(), want); err != nil {
		return pt, err
	}
	if err := checkRows(id+" unpruned", fullRes.Len(), want); err != nil {
		return pt, err
	}

	ineqs := 0
	for _, br := range qp.Branches {
		ineqs += br.Sys.NumIneqs()
	}
	solve, mask, restrict := t3.Sub(t2), t4.Sub(t3b), t5.Sub(t4b)
	compile, drain := t6.Sub(t5b), t7.Sub(t6)
	pt.parsePlan = t2.Sub(t0)
	pt.executed = solve + mask + restrict + compile + drain
	acc.add(id, "sparql.parse_us", us64(t1.Sub(t0)))
	acc.add(id, "core.plan_us", us64(t2.Sub(t1)))
	acc.add(id, "core.inequalities", float64(ineqs))
	acc.add(id, "soi.solve_us", us64(solve))
	acc.add(id, "soi.rounds", float64(rel.Stats.Rounds))
	acc.add(id, "soi.evaluations", float64(rel.Stats.Evaluations))
	acc.add(id, "soi.chi_candidates", float64(chi))
	acc.add(id, "prune.mask_us", us64(mask))
	acc.add(id, "prune.kept", float64(pr.Kept))
	acc.add(id, "prune.total", float64(pr.Total))
	acc.add(id, "storage.restrict_us", us64(restrict))
	acc.add(id, "storage.restrict_alloc_kb", float64(restrictAlloc)/1024)
	acc.add(id, "engine.compile_us", us64(compile))
	acc.add(id, "engine.drain_us", us64(drain))
	acc.add(id, "engine.next_calls", float64(nextCalls))
	acc.add(id, "engine.rows", float64(res.Len()))
	acc.add(id, "engine.full_drain_us", us64(t8.Sub(t7b)))
	acc.add(id, "pruned_path_us", us64(pt.executed))
	return pt, nil
}

// addQueryTime records a timed DB.Query of the same request and the
// part of it the layer spans leave unexplained. A cache miss also
// parsed and planned.
func addQueryTime(acc *layerAcc, id string, query time.Duration, cacheHit bool, pt pipelineTimes) {
	explained := pt.executed
	if !cacheHit {
		explained += pt.parsePlan
	}
	acc.add(id, "dualsim.query_us", us64(query))
	acc.add(id, "dualsim.other_us", us64(query-explained))
}

// allocBytes reads the runtime's cumulative heap allocation counter.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
