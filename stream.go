package dualsim

import (
	"context"
	"time"

	"dualsim/internal/engine"
	"dualsim/internal/plan"
	"dualsim/internal/storage"
	"dualsim/internal/trace"
)

// Rows is a streaming result cursor: the rows of one execution delivered
// one at a time, database/sql style, instead of materialized into a
// Result. The first row is available as soon as the iterator tree
// produces it — a serving layer can have it on the wire while the last
// row is still being computed.
//
// The contract follows database/sql.Rows: call Next until it returns
// false, then consult Err to distinguish exhaustion from failure, and
// Close when done (Close is idempotent and implied by exhaustion).
// A Rows is single-goroutine; concurrent executions each call Stream.
type Rows struct {
	ex    *engine.Exec
	st    *Store // decode dictionary of the pinned snapshot
	stats *ExecStats
	begin time.Time   // Stream entry, for the end-to-end duration
	eval  time.Time   // evaluate-stage start, for its StageStats
	in    int         // evaluate-stage input cardinality
	sp    *trace.Span // evaluate span of a traced stream; nil otherwise
	row   []storage.NodeID
	n     int
	err   error
	done  bool // root iterator exhausted; stats finalized
}

// Stream runs the pipeline's pre-evaluation stages (fingerprint
// pre-filter, dual-simulation pruning) eagerly and returns a cursor over
// the evaluation's rows, computed incrementally by the streaming Volcano
// executor. Stream always uses the Volcano iterator path, regardless of
// the session's WithEngine choice — it is the streaming counterpart of
// Exec, not a different engine's semantics (all engines agree on the
// result set).
//
// Stats is usable immediately for the epoch and the pre-evaluation
// stages; the evaluation stage's numbers and the operator counters
// finalize when the cursor is exhausted or closed.
func (pq *PreparedQuery) Stream(ctx context.Context) (*Rows, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if pq.db.closed.Load() {
		return nil, ErrClosed
	}
	stats := &ExecStats{
		Epoch:         pq.snap.epoch,
		TriplesBefore: pq.snap.st.NumTriples(),
		TriplesAfter:  pq.snap.st.NumTriples(),
		Fingerprint:   pq.fprint.ID,
		StatementText: pq.fprint.Text,
	}
	x := &execState{pq: pq, stats: stats}
	parent := trace.SpanFromContext(ctx)
	begin := time.Now()
	for _, stage := range pq.stages {
		if stage.name == "evaluate" {
			// Replaced by the cursor: the evaluation happens under the
			// caller's Next calls, not here.
			continue
		}
		if err := ctx.Err(); err != nil {
			x.releaseRelation()
			return nil, err
		}
		ss := StageStats{Name: stage.name}
		sctx := ctx
		sp := parent.StartChild(stage.name)
		if sp != nil {
			sctx = trace.ContextWithSpan(ctx, sp)
		}
		s0 := time.Now()
		err := stage.run(sctx, x, &ss)
		ss.Duration = time.Since(s0)
		sp.End()
		if sp != nil {
			sp.Add("in", int64(ss.In))
			sp.Add("out", int64(ss.Out))
			if ss.Skipped {
				sp.SetAttr("skipped", "true")
			}
		}
		stats.Stages = append(stats.Stages, ss)
		if err != nil {
			x.releaseRelation()
			return nil, err
		}
	}
	// The masked view holds the triple masks, not χ; the solver's χ rows
	// can go back to the pool before the caller starts iterating.
	x.releaseRelation()
	target := x.target
	if target == nil {
		target = pq.snap.st
	}
	ex, err := engine.Compile(target, pq.q, plan.Options{})
	if err != nil {
		return nil, err
	}
	if n := pq.db.set.maxQueryMemory; n > 0 {
		ex.SetMaxMemory(n)
	}
	if parent != nil {
		// A traced stream pays for per-operator clocks, like Exec.
		ex.EnableTiming()
	}
	stats.PlanDecisions = ex.Decisions()
	if err := ex.Open(ctx); err != nil {
		ex.Close()
		return nil, err
	}
	return &Rows{
		ex:    ex,
		st:    pq.snap.st,
		stats: stats,
		begin: begin,
		eval:  time.Now(),
		in:    target.NumTriples(),
		sp:    parent.StartChild("evaluate"),
	}, nil
}

// Vars returns the result columns, in row order.
func (r *Rows) Vars() []string { return r.ex.Vars() }

// Next advances to the next row, reporting whether one is available.
// After false, Err distinguishes exhaustion (nil) from failure.
func (r *Rows) Next() bool {
	if r.done || r.err != nil {
		return false
	}
	row, ok, err := r.ex.Next()
	if err != nil {
		r.err = err
		r.finish()
		return false
	}
	if !ok {
		r.finish()
		return false
	}
	r.row = row
	r.n++
	return true
}

// Row returns the current row: positional over Vars, Unbound for
// positions outside dom(µ), same encoding as Result.Rows. The slice is
// owned by the caller and not reused by the cursor.
func (r *Rows) Row() []storage.NodeID { return r.row }

// Err returns the error that terminated iteration, if any.
func (r *Rows) Err() error { return r.err }

// Close releases the cursor. Idempotent; safe after exhaustion.
func (r *Rows) Close() error {
	err := r.ex.Close()
	if !r.done {
		r.finish()
	}
	if r.err == nil && err != nil {
		r.err = err
	}
	return err
}

// Stats returns the execution's statistics. Before exhaustion the
// evaluation stage is absent and the operator counters reflect rows
// produced so far; after exhaustion (or Close) everything is final.
func (r *Rows) Stats() *ExecStats {
	if !r.done {
		r.stats.Operators = r.ex.Operators()
		r.stats.Results = r.n
	}
	return r.stats
}

// finish seals the stats: the evaluation StageStats, the operator
// counters and the end-to-end duration.
func (r *Rows) finish() {
	r.done = true
	r.row = nil
	r.stats.Stages = append(r.stats.Stages, StageStats{
		Name:     "evaluate",
		Duration: time.Since(r.eval),
		In:       r.in,
		Out:      r.n,
	})
	r.stats.Results = r.n
	r.stats.Operators = r.ex.Operators()
	res := r.ex.Resources()
	r.stats.Resources = &res
	r.stats.Duration = time.Since(r.begin)
	r.sp.End()
	if r.sp != nil {
		r.sp.Add("in", int64(r.in))
		r.sp.Add("out", int64(r.n))
		attachOperatorSpans(r.sp, r.stats.Operators)
		r.sp = nil
	}
}
