package dualsim

import (
	"context"
	"time"

	"dualsim/internal/bitvec"
	"dualsim/internal/core"
	"dualsim/internal/engine"
	"dualsim/internal/prune"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
	"dualsim/internal/trace"
)

// ErrQueryMemoryExceeded is returned by an execution whose buffered
// state (hash-join build sides, DISTINCT/OFFSET seen-sets) outgrew the
// session's WithMaxQueryMemory budget. Served as HTTP 413 by dualsimd.
var ErrQueryMemoryExceeded = engine.ErrQueryMemoryExceeded

// Resources is the per-query resource accounting of a streaming
// execution: estimated peak buffered bytes and rows across all
// buffering operators, plus the budget in force. See
// ExecStats.Resources.
type Resources = engine.Resources

// OperatorStats is the per-operator counter set of a streaming
// execution: which physical operator ran (scan, extend, hashjoin,
// filter, union, limit, distinct, …), over what pattern or condition,
// the planner's cardinality estimate where one exists, and the rows it
// actually produced. Reported in ExecStats.Operators when the session
// engine is Volcano.
type OperatorStats = engine.OperatorStats

// streamEngine is the capability the Volcano engine adds over the plain
// Engine interface: compiling a query to a streaming iterator tree whose
// operator counters and planner decisions outlive the execution.
type streamEngine interface {
	Compile(st *storage.Store, q *sparql.Query) (*engine.Exec, error)
}

// Stage is one step of a prepared query's execution pipeline. The three
// built-in stages compose the paper's architecture — an optional
// fingerprint pre-filter, the dual-simulation pruning, and the engine
// evaluation — and WithStages rearranges or drops them per session.
type Stage struct {
	name string
	run  func(ctx context.Context, x *execState, ss *StageStats) error
}

// Name identifies the stage in ExecStats.
func (s Stage) Name() string { return s.name }

// execState is the mutable state threaded through one Exec call. Every
// Exec allocates its own, so concurrent executions of one PreparedQuery
// never share mutable data.
type execState struct {
	pq       *PreparedQuery
	restrict [][]*bitvec.Vector  // fingerprint-lifted solver bounds, per branch
	rel      *core.QueryRelation // solved relation (pruning stage)
	target   *Store              // evaluation target; nil means the session store
	result   *Result
	stats    *ExecStats
}

// releaseRelation returns the solved relation's χ storage to the plan's
// per-system solver pools once an execution is over. No stage output
// retains the vectors: the masked view PruneStage hands the engine holds
// the per-predicate triple masks, not χ, and ExecStats carries scalars
// only.
func (x *execState) releaseRelation() {
	if x.rel != nil {
		x.rel.Release()
		x.rel = nil
	}
}

// FingerprintStage returns the pre-filter stage: it installs the
// summary-lifted candidate bounds computed at Prepare time, tightening
// the starting point of the downstream solve. The stage reports itself
// skipped when the session has no fingerprint (or lifting restricted
// nothing).
func FingerprintStage() Stage {
	return Stage{name: "fingerprint", run: func(ctx context.Context, x *execState, ss *StageStats) error {
		n := x.pq.snap.st.NumNodes()
		ss.In, ss.Out = n, n
		// Nothing to install, the solve already ran (a WithStages
		// composition placed this stage after the pruning stage), or the
		// pruning stage will skip the solve (the query is not
		// well-designed): the pre-filter can constrain nothing — report
		// it skipped rather than advertise a bound that was never
		// applied.
		if x.pq.restrict == nil || x.rel != nil || !x.pq.wellDesigned {
			ss.Skipped = true
			return nil
		}
		x.restrict = x.pq.restrict
		ss.Out = x.pq.fpTightest
		return nil
	}}
}

// PruneStage returns the dual-simulation stage: solve the prepared
// system of inequalities (from the fingerprint-tightened bounds when
// present), mark the certified triples and hand the downstream engine a
// masked view of the snapshot store that reads its indexes in place and
// skips every uncertified triple. Pruning preserves the answers of
// well-designed queries only (Theorem 2); for any other query the stage
// reports itself skipped and the engine evaluates the full snapshot.
func PruneStage() Stage {
	return Stage{name: "prune", run: func(ctx context.Context, x *execState, ss *StageStats) error {
		pq := x.pq
		if !pq.wellDesigned {
			n := pq.snap.st.NumTriples()
			ss.In, ss.Out, ss.Skipped = n, n, true
			return nil
		}
		rel, err := pq.plan.SolveRestricted(ctx, pq.db.set.coreConfig(), x.restrict)
		if err != nil {
			return err
		}
		x.rel = rel
		x.stats.Solver = Stats{
			Rounds:      rel.Stats.Rounds,
			Evaluations: rel.Stats.Evaluations,
			Updates:     rel.Stats.Updates,
		}
		x.stats.Unsatisfiable = rel.Empty()
		p, err := prune.PruneCtx(ctx, pq.snap.st, rel)
		if err != nil {
			return err
		}
		x.stats.TriplesAfter = p.Kept
		ss.In, ss.Out = p.Total, p.Kept
		x.target = p.View()
		return nil
	}}
}

// EvaluateStage returns the final stage: hand the (possibly pruned)
// store to the session's engine and compute the solution mappings.
func EvaluateStage() Stage {
	return Stage{name: "evaluate", run: func(ctx context.Context, x *execState, ss *StageStats) error {
		target := x.target
		if target == nil {
			target = x.pq.snap.st
		}
		ss.In = target.NumTriples()
		sp := trace.SpanFromContext(ctx)
		var res *Result
		if se, ok := x.pq.db.eng.(streamEngine); ok {
			// Streaming engine: compile to the iterator tree so the
			// per-operator counters and the optimizer's decision log
			// survive into ExecStats, then drain it to keep the
			// materializing contract of Exec.
			ex, err := se.Compile(target, x.pq.q)
			if err != nil {
				return err
			}
			if n := x.pq.db.set.maxQueryMemory; n > 0 {
				ex.SetMaxMemory(n)
			}
			if sp != nil {
				// A traced execution pays for per-operator clocks; the
				// default path never reads the clock per row.
				ex.EnableTiming()
			}
			res, err = engine.Drain(ctx, ex)
			x.stats.Operators = ex.Operators()
			x.stats.PlanDecisions = ex.Decisions()
			r := ex.Resources()
			x.stats.Resources = &r
			attachOperatorSpans(sp, x.stats.Operators)
			if err != nil {
				return err
			}
		} else {
			var err error
			res, err = x.pq.db.eng.Evaluate(ctx, target, x.pq.q)
			if err != nil {
				return err
			}
		}
		x.result = res
		x.stats.Results = res.Len()
		ss.Out = res.Len()
		return nil
	}}
}

// attachOperatorSpans grafts the executor's per-operator counters as a
// span tree under the evaluate span, rebuilding the plan-tree shape from
// the post-order operator list and each entry's Depth. No-op when sp is
// nil (tracing disabled).
func attachOperatorSpans(sp *trace.Span, ops []OperatorStats) {
	if sp == nil || len(ops) == 0 {
		return
	}
	// In a post-order walk, a node's children are exactly the pending
	// subtrees one level deeper when the node appears.
	pending := make(map[int][]*trace.Span)
	for _, op := range ops {
		s := &trace.Span{Name: "op." + op.Op, Duration: op.Time}
		if op.Detail != "" {
			s.Attrs = map[string]string{"detail": op.Detail}
		}
		s.Counters = map[string]int64{"rows": op.Rows, "nextCalls": op.NextCalls}
		if op.EstRows > 0 {
			s.Counters["estRows"] = int64(op.EstRows)
		}
		s.Children = pending[op.Depth+1]
		delete(pending, op.Depth+1)
		pending[op.Depth] = append(pending[op.Depth], s)
	}
	for _, s := range pending[0] {
		sp.Attach(s)
	}
}

// StageStats reports one pipeline stage of one execution.
//
// The JSON encoding (lowerCamel tags, durations in nanoseconds) is the
// stable wire form served by dualsimd and archived by benchtables -json;
// it does not follow Go field renames.
//
//dualsim:wire
type StageStats struct {
	// Name is the stage name ("fingerprint", "prune", "evaluate").
	Name string `json:"name"`
	// Duration is the stage's wall-clock time.
	Duration time.Duration `json:"duration"`
	// In and Out are the stage's cardinality effect: nodes (tightest
	// candidate bound) for the fingerprint stage, triples before/after
	// for the pruning stage, triples in / result rows out for the
	// evaluation stage.
	In  int `json:"in"`
	Out int `json:"out"`
	// Skipped reports that the stage had nothing to do (e.g. the
	// fingerprint stage on a session without a fingerprint, or the
	// pruning stage on a query that is not well-designed).
	Skipped bool `json:"skipped,omitempty"`
}

// ExecStats reports one execution of a prepared query, stage by stage.
//
// JSON tags are part of the serving wire format (see StageStats).
//
//dualsim:wire
type ExecStats struct {
	// Stages holds per-stage timings and cardinalities in pipeline order.
	Stages []StageStats `json:"stages,omitempty"`
	// Solver is the solver effort of the pruning stage's dual-simulation
	// solve (zero when the pipeline has no pruning stage).
	Solver Stats `json:"solver"`
	// TriplesBefore and TriplesAfter frame the pruning effect; they are
	// equal when the pipeline does not prune.
	TriplesBefore int `json:"triplesBefore"`
	TriplesAfter  int `json:"triplesAfter"`
	// Results is the number of solution mappings (0 when the pipeline
	// has no evaluation stage).
	Results int `json:"results"`
	// Operators holds the streaming executor's per-operator counters,
	// outermost operator first (only when the session engine is Volcano;
	// empty for the materializing engines).
	Operators []OperatorStats `json:"operators,omitempty"`
	// PlanDecisions is the cost-based optimizer's decision log — one
	// line per join reordering, filter pushdown or LIMIT pushdown it
	// applied (only when the session engine is Volcano).
	PlanDecisions []string `json:"planDecisions,omitempty"`
	// Resources is the execution's resource accounting: estimated peak
	// buffered bytes and rows across the streaming executor's buffering
	// operators (hash-join build sides, DISTINCT/OFFSET seen-sets), and
	// the WithMaxQueryMemory budget in force. Nil for the materializing
	// engines, which do not meter.
	Resources *Resources `json:"resources,omitempty"`
	// Fingerprint identifies the statement's normalized shape — the hash
	// of the canonical query text with literals masked and variables
	// renamed positionally. It keys the workload statistics store
	// (/v1/debug/statements) and the slow-query log cross-link.
	Fingerprint string `json:"fingerprint,omitempty"`
	// StatementText is the canonical (normalized) statement text behind
	// Fingerprint. It is carried for the serving layer's statistics
	// store, not serialized per response — the statements endpoint
	// reports it once per statement instead.
	StatementText string `json:"-"`
	// Unsatisfiable reports that the solve proved the query empty (every
	// UNION branch has an empty mandatory variable, Theorem 1).
	Unsatisfiable bool `json:"unsatisfiable,omitempty"`
	// CacheHit reports that the execution reused a plan from the
	// session's plan cache (set by Query and ExecBatch; always false for
	// Prepare/Exec, which bypass the cache).
	CacheHit bool `json:"cacheHit"`
	// Epoch is the store epoch this execution answered from — the one
	// its plan was prepared on. Requests issued after an Apply report
	// the new epoch; executions of queries prepared (or pinned via
	// Snapshot) earlier keep reporting theirs.
	Epoch uint64 `json:"epoch"`
	// Duration is the end-to-end execution time.
	Duration time.Duration `json:"duration"`
	// Trace is the request's span tree when tracing was enabled
	// (?trace=1 / a traceparent header / the slow-query log): pipeline
	// stages, per-operator spans, and — on a routed query — the stitched
	// subtrees of every contacted shard. Nil by default.
	Trace *trace.Span `json:"trace,omitempty"`
}

// Stage returns the stats of the named stage, or nil if the pipeline
// did not run it.
func (s *ExecStats) Stage(name string) *StageStats {
	for i := range s.Stages {
		if s.Stages[i].Name == name {
			return &s.Stages[i]
		}
	}
	return nil
}

// JoinTime returns the evaluation stage's duration — the paper's t_DB on
// the pruned store.
func (s *ExecStats) JoinTime() time.Duration {
	if ss := s.Stage("evaluate"); ss != nil {
		return ss.Duration
	}
	return 0
}

// PruneTime returns the pruning stage's duration — the paper's
// t_SPARQLSIM.
func (s *ExecStats) PruneTime() time.Duration {
	if ss := s.Stage("prune"); ss != nil {
		return ss.Duration
	}
	return 0
}

// PrunedRatio returns the pruned fraction in [0, 1].
func (s *ExecStats) PrunedRatio() float64 {
	if s.TriplesBefore == 0 {
		return 0
	}
	return 1 - float64(s.TriplesAfter)/float64(s.TriplesBefore)
}
