package engine

import (
	"context"
	"slices"
	"sort"

	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// Engine evaluates SPARQL queries against a store.
type Engine interface {
	// Name identifies the engine in reports (Tables 4/5).
	Name() string
	// Evaluate computes the solution mapping set of q over st. It honours
	// ctx: cancellation or deadline expiry aborts the evaluation between
	// join steps and row batches, returning ctx.Err().
	Evaluate(ctx context.Context, st *storage.Store, q *sparql.Query) (*Result, error)
}

// ---------------------------------------------------------------------------
// HashJoin: materialize every pattern, hash-join in cardinality order.

type hashJoinEngine struct{}

// NewHashJoin returns the materializing hash-join engine (the in-memory
// RDFox stand-in of Table 4).
func NewHashJoin() Engine { return hashJoinEngine{} }

func (hashJoinEngine) Name() string { return "hashjoin" }

func (hashJoinEngine) Evaluate(ctx context.Context, st *storage.Store, q *sparql.Query) (*Result, error) {
	res, err := evalExpr(ctx, st, q.Expr, hashJoinBGP)
	if err != nil {
		return nil, err
	}
	return applyLimit(res, q), nil
}

func hashJoinBGP(ctx context.Context, st *storage.Store, b sparql.BGP) (*Result, error) {
	if len(b) == 0 {
		return unitResult(), nil
	}
	rs := make([]resolved, len(b))
	for i, tp := range b {
		r, err := resolve(st, tp)
		if err != nil {
			return nil, err
		}
		rs[i] = r
	}
	// Cheapest table first, then always join in the initial static
	// cardinality order — the engine relies on hashing rather than
	// clever ordering, like a materializing in-memory store.
	sort.SliceStable(rs, func(i, j int) bool {
		return rs[i].estimate(st, nil) < rs[j].estimate(st, nil)
	})
	acc := rs[0].scan(st)
	for _, r := range rs[1:] {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if acc.Len() == 0 {
			// Join with anything stays empty; keep widening the schema.
			acc = NewResult(unionVars(acc, NewResult(r.vars()...))...)
			continue
		}
		var err error
		acc, err = join(ctx, acc, r.scan(st), false)
		if err != nil {
			return nil, err
		}
	}
	acc.Dedup()
	return acc, nil
}

// ---------------------------------------------------------------------------
// IndexNL: greedy cost-based ordering + index nested-loop extension.

type indexNLEngine struct{}

// NewIndexNL returns the index nested-loop engine with greedy join
// reordering (the Virtuoso stand-in of Table 5).
func NewIndexNL() Engine { return indexNLEngine{} }

func (indexNLEngine) Name() string { return "indexnl" }

func (indexNLEngine) Evaluate(ctx context.Context, st *storage.Store, q *sparql.Query) (*Result, error) {
	res, err := evalExpr(ctx, st, q.Expr, indexNLBGP)
	if err != nil {
		return nil, err
	}
	return applyLimit(res, q), nil
}

func indexNLBGP(ctx context.Context, st *storage.Store, b sparql.BGP) (*Result, error) {
	if len(b) == 0 {
		return unitResult(), nil
	}
	rs := make([]resolved, len(b))
	for i, tp := range b {
		r, err := resolve(st, tp)
		if err != nil {
			return nil, err
		}
		rs[i] = r
	}

	// Greedy ordering: repeatedly pick the cheapest pattern given the
	// variables bound so far, preferring connected patterns (those that
	// share a bound variable) over Cartesian ones.
	order := make([]resolved, 0, len(rs))
	used := make([]bool, len(rs))
	bound := make(map[string]bool)
	for len(order) < len(rs) {
		best, bestCost, bestConnected := -1, 0.0, false
		for i, r := range rs {
			if used[i] {
				continue
			}
			connected := len(bound) == 0 || sharesBound(r, bound)
			cost := r.estimate(st, bound)
			if best < 0 || (connected && !bestConnected) ||
				(connected == bestConnected && cost < bestCost) {
				best, bestCost, bestConnected = i, cost, connected
			}
		}
		used[best] = true
		order = append(order, rs[best])
		for _, v := range rs[best].vars() {
			bound[v] = true
		}
	}

	// Index nested loop over the chosen order.
	varOrder := make([]string, 0, len(bound))
	for _, r := range order {
		for _, v := range r.vars() {
			if !slices.Contains(varOrder, v) {
				varOrder = append(varOrder, v)
			}
		}
	}
	out := NewResult(varOrder...)
	current := [][]storage.NodeID{make([]storage.NodeID, len(varOrder))}
	for i := range current[0] {
		current[0][i] = Unbound
	}
	for _, r := range order {
		if !r.ok {
			return out, nil
		}
		sCol, oCol := r.cols(varOrder)
		var next [][]storage.NodeID
		for i, row := range current {
			if i%rowCheckInterval == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			extendRow(st, r, sCol, oCol, row, func(nr []storage.NodeID) {
				next = append(next, nr)
			})
		}
		current = next
		if len(current) == 0 {
			break
		}
	}
	out.Rows = current
	out.Dedup()
	return out, nil
}

func sharesBound(r resolved, bound map[string]bool) bool {
	for _, v := range r.vars() {
		if bound[v] {
			return true
		}
	}
	return false
}

// extendRow enumerates the extensions of a partial row by pattern r, whose
// subject and object sit at columns sCol and oCol (-1 for a constant),
// using the cheapest applicable index access path.
func extendRow(st *storage.Store, r resolved, sCol, oCol int, row []storage.NodeID, emit func([]storage.NodeID)) {
	sVal, sKnown := known(row, sCol, r.sID)
	oVal, oKnown := known(row, oCol, r.oID)

	push := func(s, o storage.NodeID) {
		nr := append([]storage.NodeID(nil), row...)
		if sCol >= 0 {
			nr[sCol] = s
		}
		if oCol >= 0 {
			nr[oCol] = o
		}
		emit(nr)
	}

	switch {
	case sKnown && oKnown:
		if st.HasTriple(sVal, r.pred, oVal) {
			push(sVal, oVal)
		}
	case sKnown:
		for _, o := range st.Objects(r.pred, sVal) {
			if r.sVar == r.oVar && o != sVal {
				continue
			}
			push(sVal, o)
		}
	case oKnown:
		for _, s := range st.Subjects(r.pred, oVal) {
			if r.sVar == r.oVar && s != oVal {
				continue
			}
			push(s, oVal)
		}
	default:
		st.ForEachPair(r.pred, func(s, o storage.NodeID) bool {
			if r.sVar == r.oVar && s != o {
				return true
			}
			push(s, o)
			return true
		})
	}
}

// known returns a pattern side's value in row: the constant c when col
// is -1, else the column's binding if it is bound.
func known(row []storage.NodeID, col int, c storage.NodeID) (storage.NodeID, bool) {
	if col < 0 {
		return c, true
	}
	v := row[col]
	return v, v != Unbound
}

// ---------------------------------------------------------------------------
// Reference: executable denotational semantics, for tiny inputs only.

type referenceEngine struct{}

// NewReference returns the specification engine: a direct transcription of
// the Pérez et al. set semantics by brute-force enumeration. Exponential;
// use only on small stores (tests, examples).
func NewReference() Engine { return referenceEngine{} }

func (referenceEngine) Name() string { return "reference" }

func (referenceEngine) Evaluate(ctx context.Context, st *storage.Store, q *sparql.Query) (*Result, error) {
	res, err := evalExpr(ctx, st, q.Expr, referenceBGP)
	if err != nil {
		return nil, err
	}
	return applyLimit(res, q), nil
}

func referenceBGP(ctx context.Context, st *storage.Store, b sparql.BGP) (*Result, error) {
	if len(b) == 0 {
		return unitResult(), nil
	}
	rs := make([]resolved, len(b))
	for i, tp := range b {
		r, err := resolve(st, tp)
		if err != nil {
			return nil, err
		}
		rs[i] = r
	}
	var vars []string
	seen := make(map[string]bool)
	for _, r := range rs {
		for _, v := range r.vars() {
			if !seen[v] {
				seen[v] = true
				vars = append(vars, v)
			}
		}
	}
	out := NewResult(vars...)
	sCols, oCols := make([]int, len(rs)), make([]int, len(rs))
	for i, r := range rs {
		sCols[i], oCols[i] = r.cols(vars)
	}

	// Enumerate every total assignment vars → O_DB and keep those whose
	// image satisfies all triple patterns — dom(µ) = vars(BGP).
	assign := make([]storage.NodeID, len(vars))
	checked := 0
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(vars) {
			if checked++; checked%rowCheckInterval == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			for k, r := range rs {
				if !r.ok {
					return nil
				}
				s, _ := known(assign, sCols[k], r.sID)
				o, _ := known(assign, oCols[k], r.oID)
				if !st.HasTriple(s, r.pred, o) {
					return nil
				}
			}
			out.Rows = append(out.Rows, append([]storage.NodeID(nil), assign...))
			return nil
		}
		for n := 0; n < st.NumNodes(); n++ {
			assign[i] = storage.NodeID(n)
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return out, nil
}
