package engine

import (
	"context"
	"fmt"
	"testing"

	"dualsim/internal/bitvec"
	"dualsim/internal/rdf"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// replayIter emits fixed rows without allocating.
type replayIter struct {
	vars []string
	rows [][]storage.NodeID
	i    int
}

func (r *replayIter) Open(context.Context) error { r.i = 0; return nil }
func (r *replayIter) Close() error               { return nil }
func (r *replayIter) Vars() []string             { return r.vars }

func (r *replayIter) Next() ([]storage.NodeID, bool, error) {
	if r.i == len(r.rows) {
		return nil, false, nil
	}
	r.i++
	return r.rows[r.i-1], true, nil
}

// TestExtendAllocatesOnlyRows guards the in-place index cursors: an
// extend over a subject-bound and an object-bound pattern allocates the
// widened input row and each emitted row, and nothing per lookup — on a
// plain store and on a masked view alike.
func TestExtendAllocatesOnlyRows(t *testing.T) {
	var ts []rdf.Triple
	for s := 0; s < 12; s++ {
		for o := 0; o < 5; o++ {
			ts = append(ts, rdf.T(fmt.Sprintf("s%d", s), "p", fmt.Sprintf("o%d", (s+o)%9)))
		}
	}
	st := mustStore(t, ts)
	p, _ := st.PredIDOf("p")
	// The view keeps the triples whose object has an even node id.
	all, even := bitvec.NewFull(st.NumNodes()), bitvec.New(st.NumNodes())
	for i := 0; i < st.NumNodes(); i += 2 {
		even.Set(i)
	}
	n := st.PredCount(p)
	pso, pos := make([]*bitvec.Vector, st.NumPreds()), make([]*bitvec.Vector, st.NumPreds())
	pso[p], pos[p] = bitvec.New(n), bitvec.New(n)
	st.MarkPairs(p, all, even, pso[p], pos[p], 0, n)
	view := st.View(pso, pos)
	if k := view.NumTriples(); k == 0 || k == n {
		t.Fatalf("view keeps %d of %d triples; want a proper subset", k, n)
	}

	var subjects, objects [][]storage.NodeID
	for i := 0; i < 12; i++ {
		id, _ := st.TermID(rdf.NewIRI(fmt.Sprintf("s%d", i)))
		subjects = append(subjects, []storage.NodeID{id})
	}
	for i := 0; i < 9; i++ {
		id, _ := st.TermID(rdf.NewIRI(fmt.Sprintf("o%d", i)))
		objects = append(objects, []storage.NodeID{id})
	}
	cases := []struct {
		name string
		tp   sparql.TriplePattern
		in   [][]storage.NodeID
	}{
		{"subject-bound", sparql.TriplePattern{S: sparql.V("x"), P: sparql.C("p"), O: sparql.V("y")}, subjects},
		{"object-bound", sparql.TriplePattern{S: sparql.V("y"), P: sparql.C("p"), O: sparql.V("x")}, objects},
	}
	ctx := context.Background()
	for _, target := range []struct {
		name string
		st   *storage.Store
	}{{"store", st}, {"view", view}} {
		for _, c := range cases {
			r, err := resolve(target.st, c.tp)
			if err != nil {
				t.Fatal(err)
			}
			e := newExtendIter(target.st, &replayIter{vars: []string{"x"}, rows: c.in}, r, false)
			emitted := 0
			allocs := testing.AllocsPerRun(50, func() {
				emitted = 0
				if err := e.Open(ctx); err != nil {
					t.Fatal(err)
				}
				for {
					_, ok, err := e.Next()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					emitted++
				}
			})
			if emitted == 0 {
				t.Fatalf("%s/%s: no rows emitted", target.name, c.name)
			}
			if rows := float64(len(c.in) + emitted); allocs > rows {
				t.Errorf("%s/%s: %.0f allocations for %d input and %d emitted rows; want at most %.0f",
					target.name, c.name, allocs, len(c.in), emitted, rows)
			}
		}
	}
}
