package engine

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"
	"unsafe"

	"dualsim/internal/plan"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// ctxErr is ctx.Err() that also detects an expired deadline the runtime
// timer has not delivered yet. On hosts with coarse timer resolution a
// sub-millisecond context.WithTimeout can stay Err() == nil for tens of
// milliseconds — longer than an entire streamed execution — so the
// operators compare wall-clock time against the deadline directly.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// Iterator is the Volcano operator interface: Open prepares the operator,
// Next produces one row at a time (rows are positional over Vars, with
// Unbound for positions outside dom(µ)), Close releases resources. The
// row returned by Next is owned by the caller (operators never reuse row
// slices they hand out).
type Iterator interface {
	Open(ctx context.Context) error
	// Next returns the next row; ok is false at end of stream.
	Next() (row []storage.NodeID, ok bool, err error)
	Close() error
	Vars() []string
}

// OperatorStats is the per-operator execution counter set surfaced in
// ExecStats: which operator ran, over what (a pattern or condition), the
// planner's cardinality estimate where one exists, and the rows actually
// produced.
//
//dualsim:wire
type OperatorStats struct {
	Op      string  `json:"op"`
	Detail  string  `json:"detail,omitempty"`
	EstRows float64 `json:"estRows,omitempty"`
	Rows    int64   `json:"rows"`
	// MemBytes and RowsBuffered estimate the operator's build-side
	// footprint: hash-join right sides and distinct/limit seen-sets are
	// the buffering points of the tree; streaming operators stay 0.
	MemBytes     int64 `json:"memBytes,omitempty"`
	RowsBuffered int64 `json:"rowsBuffered,omitempty"`
	// NextCalls counts Next invocations on the operator, including the
	// final end-of-stream one — rows plus the pull overhead.
	NextCalls int64 `json:"nextCalls,omitempty"`
	// Time is wall-clock time spent inside the operator's subtree
	// (inclusive of children), collected only when the execution was
	// compiled with timing enabled (tracing / EXPLAIN ANALYZE); 0
	// otherwise, so the untraced hot path never reads the clock per row.
	Time time.Duration `json:"time,omitempty"`
	// Depth is the operator's depth in the plan tree (root = 0): with
	// the post-order operator list it reconstructs the tree shape for
	// EXPLAIN rendering and per-operator trace spans.
	Depth int `json:"depth,omitempty"`
}

// Exec is a compiled streaming execution: the iterator tree of an
// optimized plan, plus the plan metadata (per-operator counters and the
// optimizer's decision log). It implements Iterator; Operators reads the
// counters accumulated so far, so it is meaningful both mid-stream and
// after exhaustion.
type Exec struct {
	root      Iterator
	ops       []*OperatorStats
	its       []*countedIter
	decisions []string
	acct      *account
}

func (e *Exec) Open(ctx context.Context) error        { return e.root.Open(ctx) }
func (e *Exec) Next() ([]storage.NodeID, bool, error) { return e.root.Next() }
func (e *Exec) Close() error                          { return e.root.Close() }
func (e *Exec) Vars() []string                        { return e.root.Vars() }

// Operators returns a snapshot of the per-operator counters in
// registration order — post-order over the plan tree (children before
// their parent, the outermost operator last). Together with each entry's
// Depth this is enough to rebuild the tree shape.
func (e *Exec) Operators() []OperatorStats {
	out := make([]OperatorStats, len(e.ops))
	for i, op := range e.ops {
		out[i] = *op
	}
	return out
}

// EnableTiming turns on per-operator wall-clock collection for this
// execution (OperatorStats.Time). Call before Open: timing costs two
// monotonic clock reads per Next per operator, so it is opt-in — the
// tracer and EXPLAIN ANALYZE enable it, the default path does not.
func (e *Exec) EnableTiming() {
	for _, it := range e.its {
		it.timed = true
	}
}

// Decisions returns the planner's decision log.
func (e *Exec) Decisions() []string { return e.decisions }

// ErrQueryMemoryExceeded reports that an execution's buffered state
// outgrew its per-query memory budget (SetMaxMemory). The query fails
// cleanly; the session stays usable.
var ErrQueryMemoryExceeded = errors.New("engine: query memory budget exceeded")

// Resources is the per-query resource accounting summary: the peak
// estimated memory held by buffering operators (hash-join build sides,
// distinct/limit seen-sets) and the total rows they buffered. Always
// collected — the estimates are integer arithmetic on the paths that
// already touch the buffered rows.
//
//dualsim:wire
type Resources struct {
	// PeakBytes is the high-water estimate of buffered bytes across the
	// whole tree; LimitBytes echoes the budget when one was set.
	PeakBytes    int64 `json:"peakBytes"`
	RowsBuffered int64 `json:"rowsBuffered,omitempty"`
	LimitBytes   int64 `json:"limitBytes,omitempty"`
}

// SetMaxMemory bounds the execution's buffered-memory estimate: once
// exceeded, the stream fails with ErrQueryMemoryExceeded. Call before
// Open; n <= 0 means unlimited (accounting still runs).
func (e *Exec) SetMaxMemory(n int64) { e.acct.limit = n }

// Resources reads the accounting accumulated so far; like Operators it
// is meaningful both mid-stream and after exhaustion.
func (e *Exec) Resources() Resources {
	return Resources{PeakBytes: e.acct.peak, RowsBuffered: e.acct.rows, LimitBytes: e.acct.limit}
}

// account tracks the execution-wide buffered-memory estimate. Volcano
// pulls are single-threaded, so plain fields suffice — charging is two
// integer adds and a compare on the paths that already append a row or
// insert a key.
type account struct {
	cur, peak int64
	rows      int64
	limit     int64 // 0 = unlimited
}

// charge books bytes (and rows) against the budget, also attributing
// them to the operator's own counters.
func (a *account) charge(st *OperatorStats, rows, bytes int64) error {
	st.MemBytes += bytes
	st.RowsBuffered += rows
	a.rows += rows
	a.cur += bytes
	if a.cur > a.peak {
		a.peak = a.cur
	}
	if a.limit > 0 && a.cur > a.limit {
		return fmt.Errorf("%w: %d bytes buffered, budget %d", ErrQueryMemoryExceeded, a.cur, a.limit)
	}
	return nil
}

// release returns an operator's booked bytes to the pool (on re-Open).
func (a *account) release(st *OperatorStats) {
	a.cur -= st.MemBytes
	a.rows -= st.RowsBuffered
	st.MemBytes = 0
	st.RowsBuffered = 0
}

// Buffered-row cost model: a []NodeID row plus slice/bucket overhead,
// and a seen-set key plus map-entry overhead. Estimates, not exact heap
// sizes — stable across runs, cheap to maintain, good enough to rank
// statements and to bound runaway queries.
const (
	rowOverheadBytes = 48
	keyOverheadBytes = 48
)

func rowCostBytes(row []storage.NodeID) int64 {
	return rowOverheadBytes + int64(len(row))*int64(unsafe.Sizeof(storage.NodeID(0)))
}

func keyCostBytes(k string) int64 { return keyOverheadBytes + int64(len(k)) }

// Compile lowers and optimizes q against st and compiles the plan to an
// iterator tree. The result streams distinct rows (set semantics) and
// honours the query's LIMIT/OFFSET.
func Compile(st *storage.Store, q *sparql.Query, opt plan.Options) (*Exec, error) {
	pl := plan.Build(st, q, opt)
	c := &compiler{st: st, acct: &account{}}
	// Top-level set semantics: joins and unions may produce duplicate
	// mappings. A Limit root already deduplicates (it counts distinct
	// rows); anything else gets an explicit distinct, which then is the
	// real tree root — the plan root compiles one level deeper.
	_, limitRoot := pl.Root.(plan.Limit)
	if !limitRoot {
		c.depth = 1
	}
	root, err := c.compile(pl.Root)
	if err != nil {
		return nil, err
	}
	if !limitRoot {
		c.depth = 0
		d := &distinctIter{in: root, acct: c.acct}
		root = c.counted("distinct", "", 0, d)
		d.stats = c.lastStats()
	}
	return &Exec{root: root, ops: c.ops, its: c.its, decisions: pl.Decisions, acct: c.acct}, nil
}

// ---------------------------------------------------------------------------
// Compiler.

type compiler struct {
	st    *storage.Store
	ops   []*OperatorStats
	its   []*countedIter
	depth int // plan-tree depth of the node currently being compiled
	acct  *account
}

// lastStats returns the stats slot counted just registered — the hook
// buffering iterators use to attribute their memory charges.
func (c *compiler) lastStats() *OperatorStats { return c.ops[len(c.ops)-1] }

// counted registers an operator's stats slot (tagged with the current
// tree depth) and wraps it with the row-counting shim. Registration
// order is post-order: children before their parent.
func (c *compiler) counted(op, detail string, est float64, it Iterator) Iterator {
	st := &OperatorStats{Op: op, Detail: detail, EstRows: est, Depth: c.depth}
	c.ops = append(c.ops, st)
	ci := &countedIter{in: it, stats: st}
	c.its = append(c.its, ci)
	return ci
}

// child compiles n one tree level below the current node.
func (c *compiler) child(n plan.Node) (Iterator, error) {
	c.depth++
	it, err := c.compile(n)
	c.depth--
	return it, err
}

func (c *compiler) compile(n plan.Node) (Iterator, error) {
	switch x := n.(type) {
	case plan.Unit:
		return c.counted("unit", "", 1, &unitIter{}), nil
	case plan.Scan:
		r, err := resolve(c.st, x.TP)
		if err != nil {
			return nil, err
		}
		return c.counted("scan", x.TP.String(), x.Est, &scanIter{st: c.st, r: r}), nil
	case plan.Join:
		return c.compileJoin(x.L, x.R, false)
	case plan.LeftJoin:
		return c.compileJoin(x.L, x.R, true)
	case plan.Union:
		l, err := c.child(x.L)
		if err != nil {
			return nil, err
		}
		r, err := c.child(x.R)
		if err != nil {
			return nil, err
		}
		return c.counted("union", "", 0, newUnionIter(l, r)), nil
	case plan.Filter:
		in, err := c.child(x.Input)
		if err != nil {
			return nil, err
		}
		return c.counted("filter", x.Cond.String(), 0, newFilterIter(c.st, in, x.Cond)), nil
	case plan.Limit:
		in, err := c.child(x.Input)
		if err != nil {
			return nil, err
		}
		detail := limitDetail(x)
		li := &limitIter{in: in, limit: x.Limit, offset: x.Offset, acct: c.acct}
		it := c.counted("limit", detail, 0, li)
		li.stats = c.lastStats()
		return it, nil
	default:
		return nil, fmt.Errorf("engine: unknown plan node %T", n)
	}
}

// compileJoin picks the physical join: a pipelined index-nested-loop
// extend when the right side is a scan (optionally with pushed-down
// filters — the streaming fast path: no materialization on either side),
// and a hash join that drains only the right side otherwise.
func (c *compiler) compileJoin(ln, rn plan.Node, leftOuter bool) (Iterator, error) {
	// Peel pushed-down filters off a scan right side: for an inner join,
	// filtering the extensions after the merge is equivalent to filtering
	// the scan (the scan binds every variable the condition may name).
	// For a left join the filter must apply before the outer padding, so
	// only a bare scan takes the extend path there.
	rs := rn
	var conds []sparql.Condition
	if !leftOuter {
		for {
			f, ok := rs.(plan.Filter)
			if !ok {
				break
			}
			conds = append(conds, f.Cond)
			rs = f.Input
		}
	}
	if sc, ok := rs.(plan.Scan); ok {
		// The compiled shape is filter(…filter(extend(l)))— the peeled
		// filters stack above the extend, the left input hangs below it.
		base := c.depth
		c.depth = base + len(conds) + 1
		l, err := c.compile(ln)
		c.depth = base
		if err != nil {
			return nil, err
		}
		r, err := resolve(c.st, sc.TP)
		if err != nil {
			return nil, err
		}
		op := "extend"
		if leftOuter {
			op = "extendleft"
		}
		c.depth = base + len(conds)
		var it Iterator = newExtendIter(c.st, l, r, leftOuter)
		it = c.counted(op, sc.TP.String(), sc.Est, it)
		for i := len(conds) - 1; i >= 0; i-- {
			c.depth--
			it = c.counted("filter", conds[i].String(), 0, newFilterIter(c.st, it, conds[i]))
		}
		c.depth = base
		return it, nil
	}
	l, err := c.child(ln)
	if err != nil {
		return nil, err
	}
	r, err := c.child(rn)
	if err != nil {
		return nil, err
	}
	op := "hashjoin"
	if leftOuter {
		op = "leftjoin"
	}
	h := newHashJoinIter(l, r, leftOuter)
	h.acct = c.acct
	it := c.counted(op, "", 0, h)
	h.stats = c.lastStats()
	return it, nil
}

func limitDetail(x plan.Limit) string {
	d := ""
	if x.Limit > 0 {
		d = "limit " + strconv.Itoa(x.Limit)
	}
	if x.Offset > 0 {
		if d != "" {
			d += " "
		}
		d += "offset " + strconv.Itoa(x.Offset)
	}
	return d
}

// ---------------------------------------------------------------------------
// The volcano engine: the streaming executor behind the materializing
// Engine interface, so the existing *Result API and the reference-engine
// parity tests cover it unchanged.

type volcanoEngine struct{}

// NewVolcano returns the streaming Volcano engine: cost-based plans from
// internal/plan executed as an Open/Next/Close iterator tree. Evaluate
// materializes the stream; callers that want rows incrementally use
// Compile.
func NewVolcano() Engine { return volcanoEngine{} }

func (volcanoEngine) Name() string { return "volcano" }

func (volcanoEngine) Evaluate(ctx context.Context, st *storage.Store, q *sparql.Query) (*Result, error) {
	ex, err := Compile(st, q, plan.Options{})
	if err != nil {
		return nil, err
	}
	return Drain(ctx, ex)
}

// Compile as a method: the hook through which the session layer detects
// a streaming-capable engine and reaches the iterator tree (per-operator
// counters, planner decisions, incremental row delivery) behind the
// materializing Engine interface.
func (volcanoEngine) Compile(st *storage.Store, q *sparql.Query) (*Exec, error) {
	return Compile(st, q, plan.Options{})
}

// Drain opens the execution, materializes every row into a Result and
// closes it, polling ctx between row batches. The Exec's operator
// counters remain readable after Drain returns.
func Drain(ctx context.Context, ex *Exec) (*Result, error) {
	if err := ex.Open(ctx); err != nil {
		ex.Close()
		return nil, err
	}
	defer ex.Close()
	out := NewResult(ex.Vars()...)
	n := 0
	for {
		if n%rowCheckInterval == 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
		}
		row, ok, err := ex.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out.Rows = append(out.Rows, row)
		n++
	}
}

// ---------------------------------------------------------------------------
// Operators.

// countedIter bumps its operator's row counter on every emitted row and
// polls ctx every rowCheckInterval rows, so cancellation reaches every
// operator boundary of the tree. With timed set (tracing/EXPLAIN
// ANALYZE) it additionally accumulates inclusive wall-clock time.
type countedIter struct {
	in    Iterator
	stats *OperatorStats
	ctx   context.Context
	n     int
	timed bool
}

func (c *countedIter) Open(ctx context.Context) error { c.ctx = ctx; return c.in.Open(ctx) }
func (c *countedIter) Close() error                   { return c.in.Close() }
func (c *countedIter) Vars() []string                 { return c.in.Vars() }

func (c *countedIter) Next() ([]storage.NodeID, bool, error) {
	if c.n++; c.n%rowCheckInterval == 0 {
		if err := ctxErr(c.ctx); err != nil {
			return nil, false, err
		}
	}
	c.stats.NextCalls++
	if c.timed {
		t0 := time.Now()
		row, ok, err := c.in.Next()
		c.stats.Time += time.Since(t0)
		if ok {
			c.stats.Rows++
		}
		return row, ok, err
	}
	row, ok, err := c.in.Next()
	if ok {
		c.stats.Rows++
	}
	return row, ok, err
}

// unitIter produces the single empty mapping.
type unitIter struct{ done bool }

func (u *unitIter) Open(ctx context.Context) error { u.done = false; return nil }
func (u *unitIter) Close() error                   { return nil }
func (u *unitIter) Vars() []string                 { return nil }

func (u *unitIter) Next() ([]storage.NodeID, bool, error) {
	if u.done {
		return nil, false, nil
	}
	u.done = true
	return []storage.NodeID{}, true, nil
}

// scanIter streams the matches of one resolved triple pattern straight
// from the store's per-predicate indexes — a cursor over the predicate's
// PSO run for the unbound case, over one subject's or object's run when
// one side is a constant. Nothing is materialized.
type scanIter struct {
	st   *storage.Store
	r    resolved
	ctx  context.Context
	cur  storage.Cursor
	done bool
	n    int // checked rows since last ctx poll
}

func (s *scanIter) Vars() []string { return s.r.vars() }
func (s *scanIter) Close() error   { return nil }

func (s *scanIter) Open(ctx context.Context) error {
	s.ctx = ctx
	s.done = false
	s.cur = storage.Cursor{}
	if !s.r.ok {
		s.done = true
		return nil
	}
	switch {
	case s.r.sVar == "" && s.r.oVar == "":
	case s.r.sVar == "":
		s.cur = s.st.BySubject(s.r.pred, s.r.sID)
	case s.r.oVar == "":
		s.cur = s.st.ByObject(s.r.pred, s.r.oID)
	default:
		s.cur = s.st.AllPairs(s.r.pred)
	}
	return nil
}

func (s *scanIter) Next() ([]storage.NodeID, bool, error) {
	if s.done {
		return nil, false, nil
	}
	if s.n++; s.n%rowCheckInterval == 0 {
		if err := ctxErr(s.ctx); err != nil {
			return nil, false, err
		}
	}
	r := s.r
	if r.sVar == "" && r.oVar == "" {
		s.done = true
		if s.st.HasTriple(r.sID, r.pred, r.oID) {
			return []storage.NodeID{}, true, nil
		}
		return nil, false, nil
	}
	for {
		sub, obj, ok := s.cur.Next()
		switch {
		case !ok:
			s.done = true
			return nil, false, nil
		case r.sVar == "":
			return []storage.NodeID{obj}, true, nil
		case r.oVar == "":
			return []storage.NodeID{sub}, true, nil
		case r.sVar == r.oVar:
			if sub != obj {
				continue
			}
			return []storage.NodeID{sub}, true, nil
		}
		return []storage.NodeID{sub, obj}, true, nil
	}
}

// extendIter is the pipelined index-nested-loop join of an input stream
// with one triple pattern: each input row is extended through the
// cheapest applicable index access path, cursor-style, so rows flow from
// the leftmost scan to the client without materializing any intermediate
// — and without unbounded work per Next call, keeping cancellation
// prompt. With leftOuter it implements OPTIONAL against a scan: input
// rows with no extension survive padded.
type extendIter struct {
	st        *storage.Store
	in        Iterator
	r         resolved
	leftOuter bool

	vars   []string
	varCol map[string]int
	inVars int // input schema width (a prefix of vars)

	// Cursor over the extensions of the current input row.
	cur        []storage.NodeID // widened current input row; nil = pull next
	pairs      storage.Cursor   // index run of the pattern's known side(s)
	sVal, oVal storage.NodeID
	sKnown     bool
	oKnown     bool
	matched    bool

	ctx context.Context
	n   int
}

func newExtendIter(st *storage.Store, in Iterator, r resolved, leftOuter bool) *extendIter {
	e := &extendIter{st: st, in: in, r: r, leftOuter: leftOuter}
	e.vars = append(e.vars, in.Vars()...)
	e.inVars = len(e.vars)
	e.varCol = make(map[string]int, len(e.vars)+2)
	for i, v := range e.vars {
		e.varCol[v] = i
	}
	for _, v := range r.vars() {
		if _, ok := e.varCol[v]; !ok {
			e.varCol[v] = len(e.vars)
			e.vars = append(e.vars, v)
		}
	}
	return e
}

func (e *extendIter) Vars() []string { return e.vars }
func (e *extendIter) Close() error   { return e.in.Close() }

func (e *extendIter) Open(ctx context.Context) error {
	e.ctx = ctx
	e.cur = nil
	return e.in.Open(ctx)
}

// emitExt builds an output row extending the current input row with the
// pattern's subject/object values.
func (e *extendIter) emitExt(s, o storage.NodeID) []storage.NodeID {
	nr := append([]storage.NodeID(nil), e.cur...)
	if e.r.sVar != "" {
		nr[e.varCol[e.r.sVar]] = s
	}
	if e.r.oVar != "" {
		nr[e.varCol[e.r.oVar]] = o
	}
	e.matched = true
	return nr
}

func (e *extendIter) Next() ([]storage.NodeID, bool, error) {
	r := e.r
	for {
		if e.n++; e.n%rowCheckInterval == 0 {
			if err := ctxErr(e.ctx); err != nil {
				return nil, false, err
			}
		}
		if e.cur != nil {
			switch {
			case e.sKnown && e.oKnown:
				row := e.cur
				e.cur = nil
				if r.ok && e.st.HasTriple(e.sVal, r.pred, e.oVal) {
					e.matched = true
					return e.emitExtKnown(row), true, nil
				}
				if e.leftOuter {
					return row, true, nil
				}
				continue
			default:
				if s, o, ok := e.pairs.Next(); ok {
					if r.sVar == r.oVar && s != o {
						continue
					}
					return e.emitExt(s, o), true, nil
				}
			}
			// Cursor exhausted.
			row := e.cur
			e.cur = nil
			if e.leftOuter && !e.matched {
				return row, true, nil
			}
			continue
		}

		in, ok, err := e.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		// Widen the input row to the output schema.
		row := make([]storage.NodeID, len(e.vars))
		copy(row, in)
		for i := e.inVars; i < len(row); i++ {
			row[i] = Unbound
		}
		if !r.ok {
			// Unsatisfiable pattern: no extensions ever.
			if e.leftOuter {
				return row, true, nil
			}
			continue
		}
		e.cur = row
		e.matched = false
		e.sVal, e.sKnown = constOrBinding(r.sVar, r.sID, row, e.varCol)
		e.oVal, e.oKnown = constOrBinding(r.oVar, r.oID, row, e.varCol)
		switch {
		case e.sKnown && e.oKnown:
		case e.sKnown:
			e.pairs = e.st.BySubject(r.pred, e.sVal)
		case e.oKnown:
			e.pairs = e.st.ByObject(r.pred, e.oVal)
		default:
			e.pairs = e.st.AllPairs(r.pred)
		}
	}
}

// emitExtKnown is emitExt for the both-known case, where e.cur has
// already been cleared.
func (e *extendIter) emitExtKnown(row []storage.NodeID) []storage.NodeID {
	nr := append([]storage.NodeID(nil), row...)
	if e.r.sVar != "" {
		nr[e.varCol[e.r.sVar]] = e.sVal
	}
	if e.r.oVar != "" {
		nr[e.varCol[e.r.oVar]] = e.oVal
	}
	return nr
}

// hashJoinIter is the generic compatibility join: Open drains the right
// side into hash buckets (rows with unbound shared variables go to a
// wildcard list), then the left side streams through, probing. With
// leftOuter, unmatched left rows survive padded.
type hashJoinIter struct {
	l, r      Iterator
	leftOuter bool

	vars   []string
	shared []string
	lres   *Result // schema carrier for compatible()
	rres   *Result // drained right side

	lIdx, rIdx []int
	buckets    map[string][]int
	wildcards  []int

	// probe state
	lrow    []storage.NodeID
	cands   []int
	ci      int
	scanAll bool
	matched bool
	pending []storage.NodeID // left-outer padded row to emit
	n       int
	ctx     context.Context

	// resource accounting: the drained right side is the build-side
	// buffer this operator charges against the execution's budget.
	acct  *account
	stats *OperatorStats
}

func newHashJoinIter(l, r Iterator, leftOuter bool) *hashJoinIter {
	h := &hashJoinIter{l: l, r: r, leftOuter: leftOuter}
	lres := NewResult(l.Vars()...)
	rres := NewResult(r.Vars()...)
	h.lres, h.rres = lres, rres
	h.shared = sharedVars(lres, rres)
	h.vars = unionVars(lres, rres)
	h.lIdx = varIndexes(lres, h.shared)
	h.rIdx = varIndexes(rres, h.shared)
	return h
}

func (h *hashJoinIter) Vars() []string { return h.vars }

func (h *hashJoinIter) Close() error {
	err := h.l.Close()
	if err2 := h.r.Close(); err == nil {
		err = err2
	}
	return err
}

func (h *hashJoinIter) Open(ctx context.Context) error {
	h.ctx = ctx
	h.lrow = nil
	h.pending = nil
	h.rres.Rows = h.rres.Rows[:0]
	h.buckets = make(map[string][]int)
	h.wildcards = nil
	if h.acct != nil {
		h.acct.release(h.stats)
	}
	if err := h.l.Open(ctx); err != nil {
		return err
	}
	if err := h.r.Open(ctx); err != nil {
		return err
	}
	for {
		row, ok, err := h.r.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		i := len(h.rres.Rows)
		h.rres.Rows = append(h.rres.Rows, row)
		if allBound(row, h.rIdx) {
			k := keyOf(row, h.rIdx)
			h.buckets[k] = append(h.buckets[k], i)
		} else {
			h.wildcards = append(h.wildcards, i)
		}
		if h.acct != nil {
			if err := h.acct.charge(h.stats, 1, rowCostBytes(row)); err != nil {
				return err
			}
		}
		if i%rowCheckInterval == 0 {
			if err := ctxErr(ctx); err != nil {
				return err
			}
		}
	}
	return nil
}

// merge builds the output row from a left row and a right row (l's vars
// are a prefix of the output schema; bound right values win over padding).
func (h *hashJoinIter) merge(lrow, rrow []storage.NodeID) []storage.NodeID {
	merged := make([]storage.NodeID, len(h.vars))
	for k := range merged {
		merged[k] = Unbound
	}
	copy(merged, lrow)
	for j, v := range rrow {
		if v == Unbound {
			continue
		}
		oj := rTargetIndex(h.vars, h.rres.Vars[j])
		merged[oj] = v
	}
	return merged
}

func (h *hashJoinIter) pad(lrow []storage.NodeID) []storage.NodeID {
	merged := make([]storage.NodeID, len(h.vars))
	for k := range merged {
		merged[k] = Unbound
	}
	copy(merged, lrow)
	return merged
}

func (h *hashJoinIter) Next() ([]storage.NodeID, bool, error) {
	for {
		if h.pending != nil {
			row := h.pending
			h.pending = nil
			return row, true, nil
		}
		if h.lrow != nil {
			for {
				var ri int
				if h.scanAll {
					if h.ci >= len(h.rres.Rows) {
						break
					}
					ri = h.ci
				} else if h.ci < len(h.cands) {
					ri = h.cands[h.ci]
				} else if h.ci < len(h.cands)+len(h.wildcards) {
					ri = h.wildcards[h.ci-len(h.cands)]
				} else {
					break
				}
				h.ci++
				if compatible(h.lres, h.rres, h.lrow, h.rres.Rows[ri], h.shared) {
					h.matched = true
					return h.merge(h.lrow, h.rres.Rows[ri]), true, nil
				}
			}
			if h.leftOuter && !h.matched {
				row := h.pad(h.lrow)
				h.lrow = nil
				return row, true, nil
			}
			h.lrow = nil
		}
		lrow, ok, err := h.l.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if h.n++; h.n%rowCheckInterval == 0 {
			if err := ctxErr(h.ctx); err != nil {
				return nil, false, err
			}
		}
		h.lrow = lrow
		h.ci = 0
		h.matched = false
		if allBound(lrow, h.lIdx) {
			h.scanAll = false
			h.cands = h.buckets[keyOf(lrow, h.lIdx)]
		} else {
			h.scanAll = true
			h.cands = nil
		}
	}
}

// filterIter keeps the rows whose condition evaluates to true.
type filterIter struct {
	st   *storage.Store
	in   Iterator
	cond sparql.Condition
	cols map[string]int
}

func newFilterIter(st *storage.Store, in Iterator, cond sparql.Condition) *filterIter {
	cols := make(map[string]int)
	for i, v := range in.Vars() {
		cols[v] = i
	}
	return &filterIter{st: st, in: in, cond: cond, cols: cols}
}

func (f *filterIter) Vars() []string                 { return f.in.Vars() }
func (f *filterIter) Open(ctx context.Context) error { return f.in.Open(ctx) }
func (f *filterIter) Close() error                   { return f.in.Close() }

func (f *filterIter) Next() ([]storage.NodeID, bool, error) {
	for {
		row, ok, err := f.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if v, e := evalCond(f.st, f.cond, f.cols, row); v && !e {
			return row, true, nil
		}
	}
}

// unionIter streams the left side, then the right, both padded to the
// union schema.
type unionIter struct {
	l, r    Iterator
	vars    []string
	lMap    []int // output column of each left column
	rMap    []int
	onRight bool
}

func newUnionIter(l, r Iterator) *unionIter {
	lres := NewResult(l.Vars()...)
	rres := NewResult(r.Vars()...)
	vars := unionVars(lres, rres)
	u := &unionIter{l: l, r: r, vars: vars}
	u.lMap = make([]int, len(lres.Vars))
	for i, v := range lres.Vars {
		u.lMap[i] = rTargetIndex(vars, v)
	}
	u.rMap = make([]int, len(rres.Vars))
	for i, v := range rres.Vars {
		u.rMap[i] = rTargetIndex(vars, v)
	}
	return u
}

func (u *unionIter) Vars() []string { return u.vars }

func (u *unionIter) Open(ctx context.Context) error {
	u.onRight = false
	if err := u.l.Open(ctx); err != nil {
		return err
	}
	return u.r.Open(ctx)
}

func (u *unionIter) Close() error {
	err := u.l.Close()
	if err2 := u.r.Close(); err == nil {
		err = err2
	}
	return err
}

func (u *unionIter) project(row []storage.NodeID, m []int) []storage.NodeID {
	out := make([]storage.NodeID, len(u.vars))
	for k := range out {
		out[k] = Unbound
	}
	for i, oj := range m {
		out[oj] = row[i]
	}
	return out
}

func (u *unionIter) Next() ([]storage.NodeID, bool, error) {
	if !u.onRight {
		row, ok, err := u.l.Next()
		if err != nil {
			return nil, false, err
		}
		if ok {
			return u.project(row, u.lMap), true, nil
		}
		u.onRight = true
	}
	row, ok, err := u.r.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	return u.project(row, u.rMap), true, nil
}

// distinctIter drops rows already seen (set semantics). Its seen-set is
// a buffering point: every distinct row charges the execution account.
type distinctIter struct {
	in    Iterator
	seen  map[string]bool
	acct  *account
	stats *OperatorStats
}

func (d *distinctIter) Vars() []string { return d.in.Vars() }
func (d *distinctIter) Close() error   { return d.in.Close() }

func (d *distinctIter) Open(ctx context.Context) error {
	d.seen = make(map[string]bool)
	if d.acct != nil {
		d.acct.release(d.stats)
	}
	return d.in.Open(ctx)
}

func (d *distinctIter) Next() ([]storage.NodeID, bool, error) {
	for {
		row, ok, err := d.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		k := rowKey(row)
		if d.seen[k] {
			continue
		}
		d.seen[k] = true
		if d.acct != nil {
			if err := d.acct.charge(d.stats, 1, keyCostBytes(k)); err != nil {
				return nil, false, err
			}
		}
		return row, true, nil
	}
}

// limitIter emits the first limit distinct rows after skipping offset
// distinct rows, then stops pulling from its input — the early-exit that
// makes LIMIT queries cheap under streaming execution. Counting distinct
// rows (rather than raw ones) keeps per-branch LIMIT pushdown sound
// under set semantics.
type limitIter struct {
	in      Iterator
	limit   int // 0 = unlimited
	offset  int
	seen    map[string]bool
	skipped int
	emitted int
	acct    *account
	stats   *OperatorStats
}

func (l *limitIter) Vars() []string { return l.in.Vars() }
func (l *limitIter) Close() error   { return l.in.Close() }

func (l *limitIter) Open(ctx context.Context) error {
	l.seen = make(map[string]bool)
	l.skipped = 0
	l.emitted = 0
	if l.acct != nil {
		l.acct.release(l.stats)
	}
	return l.in.Open(ctx)
}

func (l *limitIter) Next() ([]storage.NodeID, bool, error) {
	if l.limit > 0 && l.emitted >= l.limit {
		return nil, false, nil
	}
	for {
		row, ok, err := l.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		k := rowKey(row)
		if l.seen[k] {
			continue
		}
		l.seen[k] = true
		if l.acct != nil {
			if err := l.acct.charge(l.stats, 1, keyCostBytes(k)); err != nil {
				return nil, false, err
			}
		}
		if l.skipped < l.offset {
			l.skipped++
			continue
		}
		l.emitted++
		return row, true, nil
	}
}
