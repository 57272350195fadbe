package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"dualsim"
	"dualsim/internal/queries"
)

// answer is an oracle answer: the row count checked inline on every
// timed read and the canonical row set compared once per run.
type answer struct {
	n    int
	rows []string
}

// oracleAnswers evaluates every spec over st with pruning off on the
// default engine: the reference the pruned paths must match.
func oracleAnswers(ctx context.Context, st *dualsim.Store, specs []queries.Spec) (map[string]answer, error) {
	ref, err := dualsim.Open(st, dualsim.WithPruning(false))
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	out := make(map[string]answer, len(specs))
	for _, s := range specs {
		res, _, err := ref.Query(ctx, s.Text)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.ID, err)
		}
		out[s.ID] = answer{n: res.Len(), rows: canonResult(ref.Store(), res)}
	}
	return out, nil
}

// canonResult renders an in-process result as a canonical row set.
func canonResult(st *dualsim.Store, res *dualsim.Result) []string {
	return canon(res.Vars, len(res.Rows), func(r, c int) (string, bool) {
		id := res.Rows[r][c]
		if id == dualsim.Unbound {
			return "", false
		}
		return st.Term(id).String(), true
	})
}

// canonWire renders wire rows (N-Triples terms, nil when unbound) as a
// canonical row set.
func canonWire(vars []string, rows [][]*string) []string {
	return canon(vars, len(rows), func(r, c int) (string, bool) {
		if v := rows[r][c]; v != nil {
			return *v, true
		}
		return "", false
	})
}

// canon renders rows with columns in variable-name order and sorts them,
// so row sets compare independently of plan-dependent column and row
// order.
func canon(vars []string, n int, cell func(r, c int) (string, bool)) []string {
	cols := make([]int, len(vars))
	for i := range cols {
		cols[i] = i
	}
	sort.Slice(cols, func(a, b int) bool { return vars[cols[a]] < vars[cols[b]] })
	out := make([]string, n)
	var b strings.Builder
	for r := 0; r < n; r++ {
		b.Reset()
		for _, c := range cols {
			b.WriteString(vars[c])
			if v, ok := cell(r, c); ok {
				b.WriteByte('=')
				b.WriteString(v)
			}
			b.WriteByte('\t')
		}
		out[r] = b.String()
	}
	sort.Strings(out)
	return out
}

// specsByID looks up paper queries by ID.
func specsByID(ids ...string) ([]queries.Spec, error) {
	out := make([]queries.Spec, 0, len(ids))
	for _, id := range ids {
		s, err := queries.ByID(id)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// mismatches compares full row sets and returns the IDs that differ.
func mismatches(got map[string][]string, want map[string]answer) []string {
	var bad []string
	for id, rows := range got {
		if !slices.Equal(rows, want[id].rows) {
			bad = append(bad, id)
		}
	}
	sort.Strings(bad)
	return bad
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// probe times probeWrites closed-loop writes through apply. Even writes
// add one seed-chosen triple, cycling over preds; odd writes delete it
// again, so the store ends as it began.
func probe(seed int64, preds []string, apply func(dualsim.Delta) error) ([]time.Duration, error) {
	rng := newRand(seed)
	var d dualsim.Delta
	lat := make([]time.Duration, 0, probeWrites)
	for i := 0; i < probeWrites; i++ {
		if i%2 == 0 {
			t := dualsim.T(fmt.Sprintf("perfbench:w%d", rng.Int63()), preds[(i/2)%len(preds)], fmt.Sprintf("perfbench:o%d", rng.Intn(1000)))
			d = dualsim.Delta{Adds: []dualsim.Triple{t}}
		} else {
			d = dualsim.Delta{Dels: d.Adds}
		}
		t0 := time.Now()
		if err := apply(d); err != nil {
			return lat, err
		}
		lat = append(lat, time.Since(t0))
	}
	return lat, nil
}
