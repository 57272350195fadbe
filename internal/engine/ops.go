package engine

import (
	"context"
	"fmt"

	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// rowCheckInterval is the number of rows a join or scan loop processes
// between two context-cancellation checks.
const rowCheckInterval = 1024

// evalExpr evaluates a graph pattern expression with the given BGP
// evaluator plugged in; the operator algebra (AND = ⋈, OPTIONAL = left
// outer join, UNION = ∪) is shared by all engines, as is the ctx
// cancellation discipline: every operator node checks ctx, and the join
// loops check it every rowCheckInterval rows.
func evalExpr(ctx context.Context, st *storage.Store, e sparql.Expr, bgp func(context.Context, *storage.Store, sparql.BGP) (*Result, error)) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch x := e.(type) {
	case sparql.BGP:
		return bgp(ctx, st, x)
	case sparql.And:
		l, err := evalExpr(ctx, st, x.L, bgp)
		if err != nil {
			return nil, err
		}
		r, err := evalExpr(ctx, st, x.R, bgp)
		if err != nil {
			return nil, err
		}
		return join(ctx, l, r, false)
	case sparql.Optional:
		l, err := evalExpr(ctx, st, x.L, bgp)
		if err != nil {
			return nil, err
		}
		r, err := evalExpr(ctx, st, x.R, bgp)
		if err != nil {
			return nil, err
		}
		return join(ctx, l, r, true)
	case sparql.Union:
		l, err := evalExpr(ctx, st, x.L, bgp)
		if err != nil {
			return nil, err
		}
		r, err := evalExpr(ctx, st, x.R, bgp)
		if err != nil {
			return nil, err
		}
		return union(l, r), nil
	case sparql.Filter:
		inner, err := evalExpr(ctx, st, x.Inner, bgp)
		if err != nil {
			return nil, err
		}
		return applyFilter(st, x.Cond, inner), nil
	default:
		return nil, fmt.Errorf("engine: unknown expression %T", e)
	}
}

// join computes the compatibility join l ⋈ r; with leftOuter it computes
// the left outer join (OPTIONAL): rows of l without any compatible partner
// survive unextended.
func join(ctx context.Context, l, r *Result, leftOuter bool) (*Result, error) {
	shared := sharedVars(l, r)
	out := NewResult(unionVars(l, r)...)
	lIdx := varIndexes(l, shared)
	rIdx := varIndexes(r, shared)
	rMap := varIndexes(out, r.Vars)

	idx := newJoinIndex(rIdx)
	for _, row := range r.Rows {
		idx.add(row)
	}
	emit := func(lrow, rrow []storage.NodeID) {
		out.Rows = append(out.Rows, mergeRows(make([]storage.NodeID, len(out.Vars)), lrow, rrow, rMap))
	}

	for li, lrow := range l.Rows {
		if li%rowCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		matched := false
		if allBound(lrow, lIdx) {
			// A chained row agrees with lrow on every shared variable.
			for ri := idx.lookup(lrow, lIdx); ri >= 0; ri = idx.next[ri] {
				emit(lrow, r.Rows[ri])
				matched = true
			}
			for _, ri := range idx.wildcards {
				if compatible(lrow, r.Rows[ri], lIdx, rIdx) {
					emit(lrow, r.Rows[ri])
					matched = true
				}
			}
		} else {
			// l row itself has unbound shared vars: scan everything.
			for _, rrow := range r.Rows {
				if compatible(lrow, rrow, lIdx, rIdx) {
					emit(lrow, rrow)
					matched = true
				}
			}
		}
		if leftOuter && !matched {
			emit(lrow, nil)
		}
	}
	out.Dedup()
	return out, nil
}

// union computes the set union, padding each side to the union schema.
func union(l, r *Result) *Result {
	outVars := unionVars(l, r)
	out := l.Project(outVars)
	rp := r.Project(outVars)
	out.Rows = append(out.Rows, rp.Rows...)
	out.Dedup()
	return out
}

func sharedVars(l, r *Result) []string {
	var out []string
	for _, v := range l.Vars {
		if r.VarIndex(v) >= 0 {
			out = append(out, v)
		}
	}
	return out
}

func unionVars(l, r *Result) []string {
	out := append([]string(nil), l.Vars...)
	for _, v := range r.Vars {
		if l.VarIndex(v) < 0 {
			out = append(out, v)
		}
	}
	return out
}

func varIndexes(res *Result, vars []string) []int {
	out := make([]int, len(vars))
	for i, v := range vars {
		out[i] = res.VarIndex(v)
	}
	return out
}

func allBound(row []storage.NodeID, idx []int) bool {
	for _, i := range idx {
		if row[i] == Unbound {
			return false
		}
	}
	return true
}

// compatible implements µ1 ⇋ µ2: agreement on every shared variable bound
// in both mappings (lIdx and rIdx are the shared variables' columns).
func compatible(lrow, rrow []storage.NodeID, lIdx, rIdx []int) bool {
	for k, li := range lIdx {
		lv, rv := lrow[li], rrow[rIdx[k]]
		if lv != Unbound && rv != Unbound && lv != rv {
			return false
		}
	}
	return true
}

// mergeRows fills dst (of the join's output width) with lrow, whose
// variables are a prefix of the output schema, and the bound values of
// rrow at their output columns rMap.
func mergeRows(dst, lrow, rrow []storage.NodeID, rMap []int) []storage.NodeID {
	for k := range dst {
		dst[k] = Unbound
	}
	copy(dst, lrow)
	for j, v := range rrow {
		if v != Unbound {
			dst[rMap[j]] = v
		}
	}
	return dst
}
