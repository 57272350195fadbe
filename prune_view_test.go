package dualsim

import (
	"context"
	"slices"
	"testing"

	"dualsim/internal/prune"
	"dualsim/internal/queries"
	"dualsim/internal/rdf"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// restrictPruneStage is PruneStage with the pruned store materialized by
// RestrictByMask instead of read through a masked view — the reference
// the view must be indistinguishable from.
func restrictPruneStage() Stage {
	return Stage{name: "prune", run: func(ctx context.Context, x *execState, ss *StageStats) error {
		rel, err := x.pq.plan.SolveRestricted(ctx, x.pq.db.set.coreConfig(), x.restrict)
		if err != nil {
			return err
		}
		x.rel = rel
		p, err := prune.PruneCtx(ctx, x.pq.snap.st, rel)
		if err != nil {
			return err
		}
		ss.In, ss.Out = p.Total, p.Kept
		x.target = p.Store()
		return nil
	}}
}

// execution is what one run of a query reports: its rows and the plan
// the engine chose (decisions plus per-operator estimates).
type execution struct {
	res       *Result
	decisions []string
	ops       []OperatorStats
}

func runExec(t *testing.T, db *DB, src string) execution {
	t.Helper()
	pq, err := db.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := pq.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return execution{res, stats.PlanDecisions, stats.Operators}
}

func runStream(t *testing.T, db *DB, src string) execution {
	t.Helper()
	pq, err := db.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	res := &Result{Vars: rows.Vars()}
	for rows.Next() {
		res.Rows = append(res.Rows, rows.Row())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	stats := rows.Stats()
	return execution{res, stats.PlanDecisions, stats.Operators}
}

// samePlan compares two executions' plans: the decision log and each
// operator's kind, pattern and cardinality estimate. Equal estimates
// mean the planner saw equal statistics.
func samePlan(a, b execution) bool {
	if !slices.Equal(a.decisions, b.decisions) || len(a.ops) != len(b.ops) {
		return false
	}
	for i := range a.ops {
		x, y := a.ops[i], b.ops[i]
		if x.Op != y.Op || x.Detail != y.Detail || x.Depth != y.Depth || x.EstRows != y.EstRows {
			return false
		}
	}
	return true
}

// TestMaskedViewMatchesRestrictedStore runs the 32 paper queries on
// LUBM-1 and KG-1 through every engine, buffered and streamed, once on
// the masked view the pruning stage builds and once on the store
// RestrictByMask materializes: rows, planner decisions and
// per-operator estimates must agree. The Reference engine enumerates
// mappings exhaustively (tens of seconds per LUBM-1 query), so it runs
// the paper's well-designed running examples on Fig. 1(a) instead.
func TestMaskedViewMatchesRestrictedStore(t *testing.T) {
	lubm, err := GenerateLUBMStore(1, 42)
	if err != nil {
		t.Fatal(err)
	}
	kg, err := GenerateKGStore(1, 42)
	if err != nil {
		t.Fatal(err)
	}
	fig1a, err := queries.Fig1aStore()
	if err != nil {
		t.Fatal(err)
	}
	paper := queries.All()
	for _, spec := range paper {
		if !sparql.IsWellDesigned(spec.Query().Expr) {
			t.Fatalf("%s: paper query is not well-designed", spec.ID)
		}
	}
	examples := []queries.Spec{
		{ID: "X1", Dataset: "fig1a", Text: queries.QueryX1},
		{ID: "X2", Dataset: "fig1a", Text: queries.QueryX2},
	}
	stores := map[string]*Store{"lubm": lubm, "kg": kg, "fig1a": fig1a}
	for _, kind := range []EngineKind{HashJoin, IndexNL, Volcano, Reference} {
		specs := paper
		if kind == Reference {
			specs = examples
		}
		for _, spec := range specs {
			st := stores[spec.Dataset]
			view, err := Open(st, WithEngine(kind))
			if err != nil {
				t.Fatal(err)
			}
			restricted, err := Open(st, WithEngine(kind), WithStages(restrictPruneStage(), EvaluateStage()))
			if err != nil {
				t.Fatal(err)
			}
			for mode, run := range map[string]func(*testing.T, *DB, string) execution{"exec": runExec, "stream": runStream} {
				got, want := run(t, view, spec.Text), run(t, restricted, spec.Text)
				if !got.res.Equal(want.res) {
					t.Fatalf("%s %s/%s: view %d rows, restricted %d", spec.ID, kind, mode, got.res.Len(), want.res.Len())
				}
				if !samePlan(got, want) {
					t.Fatalf("%s %s/%s: plans differ:\nview       %v %+v\nrestricted %v %+v",
						spec.ID, kind, mode, got.decisions, got.ops, want.decisions, want.ops)
				}
			}
			view.Close()
			restricted.Close()
		}
	}
}

// TestPruningNeverChangesAnswers: on a non-well-designed OPTIONAL
// pattern, pruning could let a blocked optional part join (see
// TestNonWellDesignedPromotionNuance in internal/prune). The session
// must skip pruning there and answer exactly as without it.
func TestPruningNeverChangesAnswers(t *testing.T) {
	st, err := storage.FromTriples([]rdf.Triple{
		rdf.T("c", "p2", "n3"),
		rdf.T("a", "p0", "b"),
		rdf.T("a", "p2", "d"),
		rdf.T("x", "p1", "y"),
	})
	if err != nil {
		t.Fatal(err)
	}
	const src = `SELECT * WHERE {
	  { ?v0 <p2> <n3> . ?v1 <p0> ?v3 . }
	  OPTIONAL { { ?v1 <p2> ?v2 . } OPTIONAL { ?v3 <p1> ?v0 . } } }`
	on, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	defer on.Close()
	off, err := Open(st, WithPruning(false))
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	for mode, run := range map[string]func(*testing.T, *DB, string) execution{"exec": runExec, "stream": runStream} {
		got, want := run(t, on, src), run(t, off, src)
		if !got.res.Equal(want.res) {
			t.Fatalf("%s: pruning on returned\n%s\nwant\n%s", mode, got.res.Format(st), want.res.Format(st))
		}
		if v2 := got.res.VarIndex("v2"); got.res.Len() != 1 || got.res.Rows[0][v2] != Unbound {
			t.Fatalf("%s: v2 must stay unbound:\n%s", mode, got.res.Format(st))
		}
	}
	pq, err := on.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := pq.Exec(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ps := stats.Stage("prune"); ps == nil || !ps.Skipped || ps.Out != st.NumTriples() {
		t.Fatalf("prune stage = %+v, want skipped with every triple kept", ps)
	}
}
