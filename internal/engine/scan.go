package engine

import (
	"fmt"
	"math"
	"slices"

	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// resolved is a triple pattern with constants resolved against the store
// dictionary. A constant absent from the dictionary makes the pattern
// unsatisfiable (ok == false).
type resolved struct {
	sVar, oVar string         // variable names; "" for constants
	sID, oID   storage.NodeID // constant ids (valid when the name is "")
	pred       storage.PredID
	ok         bool
	src        sparql.TriplePattern
}

func resolve(st *storage.Store, tp sparql.TriplePattern) (resolved, error) {
	if tp.P.IsVar() {
		return resolved{}, fmt.Errorf("engine: variable predicate %s unsupported (pattern graphs are edge-labeled)", tp.P)
	}
	r := resolved{ok: true, src: tp}
	pid, ok := st.PredIDOf(tp.P.Const.Value)
	if !ok {
		r.ok = false
	}
	r.pred = pid
	if tp.S.IsVar() {
		r.sVar = tp.S.Var
	} else {
		id, ok := st.TermID(*tp.S.Const)
		if !ok {
			r.ok = false
		}
		r.sID = id
	}
	if tp.O.IsVar() {
		r.oVar = tp.O.Var
	} else {
		id, ok := st.TermID(*tp.O.Const)
		if !ok {
			r.ok = false
		}
		r.oID = id
	}
	return r, nil
}

// estimate returns the expected cardinality of the pattern given which of
// its variables are already bound — the statistics-driven cost model used
// for join ordering (cf. the paper's §5.3 remark on join order
// optimization).
func (r resolved) estimate(st *storage.Store, bound map[string]bool) float64 {
	if !r.ok {
		return 0
	}
	n := float64(st.PredCount(r.pred))
	if n == 0 {
		return 0
	}
	sBound := r.sVar == "" || bound[r.sVar]
	oBound := r.oVar == "" || bound[r.oVar]
	switch {
	case sBound && oBound:
		return 1
	case sBound:
		return n / math.Max(1, float64(st.DistinctSubjects(r.pred)))
	case oBound:
		return n / math.Max(1, float64(st.DistinctObjects(r.pred)))
	default:
		return n
	}
}

// vars returns the pattern's variables.
func (r resolved) vars() []string {
	var out []string
	if r.sVar != "" {
		out = append(out, r.sVar)
	}
	if r.oVar != "" && r.oVar != r.sVar {
		out = append(out, r.oVar)
	}
	return out
}

// cols returns the columns of the pattern's subject and object in a row
// schema, -1 for a constant — resolved once, so per-row code indexes
// rows directly.
func (r resolved) cols(vars []string) (sCol, oCol int) {
	col := func(v string) int {
		if v == "" {
			return -1
		}
		return slices.Index(vars, v)
	}
	return col(r.sVar), col(r.oVar)
}

// scan materializes the pattern as a table over its variables.
func (r resolved) scan(st *storage.Store) *Result {
	out := NewResult(r.vars()...)
	if !r.ok {
		return out
	}
	switch {
	case r.sVar == "" && r.oVar == "":
		if st.HasTriple(r.sID, r.pred, r.oID) {
			out.Rows = append(out.Rows, []storage.NodeID{})
		}
	case r.sVar == "":
		for _, o := range st.Objects(r.pred, r.sID) {
			out.Rows = append(out.Rows, []storage.NodeID{o})
		}
	case r.oVar == "":
		for _, s := range st.Subjects(r.pred, r.oID) {
			out.Rows = append(out.Rows, []storage.NodeID{s})
		}
	case r.sVar == r.oVar:
		st.ForEachPair(r.pred, func(s, o storage.NodeID) bool {
			if s == o {
				out.Rows = append(out.Rows, []storage.NodeID{s})
			}
			return true
		})
	default:
		st.ForEachPair(r.pred, func(s, o storage.NodeID) bool {
			out.Rows = append(out.Rows, []storage.NodeID{s, o})
			return true
		})
	}
	return out
}
