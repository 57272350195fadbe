package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dualsim/internal/bitvec"
	"dualsim/internal/rdf"
)

// pairSeq drains a cursor.
func pairSeq(c Cursor) [][2]NodeID {
	var out [][2]NodeID
	for s, o, ok := c.Next(); ok; s, o, ok = c.Next() {
		out = append(out, [2]NodeID{s, o})
	}
	return out
}

// posMaskOf derives the POS-order mask marking the same triples as the
// PSO-order mask keep.
func posMaskOf(st *Store, p PredID, keep *bitvec.Vector) *bitvec.Vector {
	ix := &st.byPred[p]
	out := bitvec.New(len(ix.pos))
	for j, e := range ix.pos {
		if keep.Get(find(ix.pso, e.b, e.a)) {
			out.Set(j)
		}
	}
	return out
}

// randomMasks draws one PSO mask per predicate — nil, empty, full or a
// random subset — and leaves the last predicate out of the slice
// entirely, as a pruning that never touched it would.
func randomMasks(r *rand.Rand, st *Store) (pso, pos []*bitvec.Vector) {
	pso = make([]*bitvec.Vector, st.NumPreds()-1)
	pos = make([]*bitvec.Vector, len(pso))
	for p := range pso {
		n := st.PredCount(PredID(p))
		var m *bitvec.Vector
		switch r.Intn(5) {
		case 0:
			continue
		case 1:
			m = bitvec.New(n)
		case 2:
			m = bitvec.NewFull(n)
		default:
			m = bitvec.New(n)
			density := r.Float64()
			for i := 0; i < n; i++ {
				if r.Float64() < density {
					m.Set(i)
				}
			}
		}
		pso[p], pos[p] = m, posMaskOf(st, PredID(p), m)
	}
	return pso, pos
}

// markedMasks fills the masks through MarkPairs from random node sets,
// the way pruning does (one χS(v) × χS(w) product per predicate), in
// chunks of a random size.
func markedMasks(t *testing.T, r *rand.Rand, st *Store) (pso, pos []*bitvec.Vector) {
	t.Helper()
	pso = make([]*bitvec.Vector, st.NumPreds())
	pos = make([]*bitvec.Vector, st.NumPreds())
	randomSet := func() *bitvec.Vector {
		v := bitvec.New(st.NumNodes())
		for i := 0; i < st.NumNodes(); i++ {
			if r.Intn(3) == 0 {
				v.Set(i)
			}
		}
		return v
	}
	for p := range pso {
		n := st.PredCount(PredID(p))
		pso[p], pos[p] = bitvec.New(n), bitvec.New(n)
		subj, obj := randomSet(), randomSet()
		chunk := r.Intn(7) + 1
		for lo := 0; lo < n; lo += chunk {
			st.MarkPairs(PredID(p), subj, obj, pso[p], pos[p], lo, min(lo+chunk, n))
		}
		for i := 0; i < n; i++ {
			s, o := st.PairAt(PredID(p), i)
			if want := subj.Get(int(s)) && obj.Get(int(o)); pso[p].Get(i) != want {
				t.Fatalf("MarkPairs(p%d) position %d = %v, want %v", p, i, pso[p].Get(i), want)
			}
		}
		if !pos[p].Equal(posMaskOf(st, PredID(p), pso[p])) {
			t.Fatalf("MarkPairs(p%d): POS mask disagrees with PSO mask", p)
		}
	}
	return pso, pos
}

// TestViewMatchesRestrictByMask is the masked view's contract: under the
// same masks it reads exactly like the store RestrictByMask copies —
// counts, statistics, lookups, pair walks and the in-place cursors.
func TestViewMatchesRestrictByMask(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		nodes, preds := r.Intn(10)+2, r.Intn(4)+2
		ts := make([]rdf.Triple, r.Intn(60))
		for i := range ts {
			ts[i] = rdf.T(fmt.Sprintf("n%d", r.Intn(nodes)), fmt.Sprintf("p%d", r.Intn(preds)), fmt.Sprintf("n%d", r.Intn(nodes)))
		}
		// Intern every predicate, including ones no triple uses.
		for p := 0; p < preds; p++ {
			ts = append(ts, rdf.T("n0", fmt.Sprintf("p%d", p), "n0"))
		}
		st := mustStore(t, ts)
		var pso, pos []*bitvec.Vector
		if trial%2 == 0 {
			pso, pos = randomMasks(r, st)
		} else {
			pso, pos = markedMasks(t, r, st)
		}
		want := st.RestrictByMask(pso)
		got := st.View(pso, pos)
		compareStores(t, fmt.Sprintf("trial %d", trial), got, want)
	}
}

func compareStores(t *testing.T, where string, got, want *Store) {
	t.Helper()
	if got.NumTriples() != want.NumTriples() || got.NumNodes() != want.NumNodes() || got.NumPreds() != want.NumPreds() {
		t.Fatalf("%s: sizes %d/%d/%d, want %d/%d/%d", where,
			got.NumTriples(), got.NumNodes(), got.NumPreds(), want.NumTriples(), want.NumNodes(), want.NumPreds())
	}
	if !slices.Equal(got.Triples(), want.Triples()) {
		t.Fatalf("%s: Triples differ", where)
	}
	for pi := 0; pi < want.NumPreds(); pi++ {
		p := PredID(pi)
		if got.PredCount(p) != want.PredCount(p) ||
			got.DistinctSubjects(p) != want.DistinctSubjects(p) ||
			got.DistinctObjects(p) != want.DistinctObjects(p) {
			t.Fatalf("%s p%d: count/distinctS/distinctO %d/%d/%d, want %d/%d/%d", where, p,
				got.PredCount(p), got.DistinctSubjects(p), got.DistinctObjects(p),
				want.PredCount(p), want.DistinctSubjects(p), want.DistinctObjects(p))
		}
		var gp, wp [][2]NodeID
		got.ForEachPair(p, func(s, o NodeID) bool { gp = append(gp, [2]NodeID{s, o}); return true })
		want.ForEachPair(p, func(s, o NodeID) bool { wp = append(wp, [2]NodeID{s, o}); return true })
		if !slices.Equal(gp, wp) {
			t.Fatalf("%s p%d: ForEachPair %v, want %v", where, p, gp, wp)
		}
		if g := pairSeq(got.AllPairs(p)); !slices.Equal(g, wp) {
			t.Fatalf("%s p%d: AllPairs %v, want %v", where, p, g, wp)
		}
		for a := 0; a < want.NumNodes(); a++ {
			n := NodeID(a)
			if g, w := got.Objects(p, n), want.Objects(p, n); !slices.Equal(g, w) {
				t.Fatalf("%s p%d: Objects(%d) = %v, want %v", where, p, n, g, w)
			}
			if g, w := got.Subjects(p, n), want.Subjects(p, n); !slices.Equal(g, w) {
				t.Fatalf("%s p%d: Subjects(%d) = %v, want %v", where, p, n, g, w)
			}
			if g, w := pairSeq(got.BySubject(p, n)), pairSeq(want.BySubject(p, n)); !slices.Equal(g, w) {
				t.Fatalf("%s p%d: BySubject(%d) = %v, want %v", where, p, n, g, w)
			}
			if g, w := pairSeq(got.ByObject(p, n)), pairSeq(want.ByObject(p, n)); !slices.Equal(g, w) {
				t.Fatalf("%s p%d: ByObject(%d) = %v, want %v", where, p, n, g, w)
			}
			for b := 0; b < want.NumNodes(); b++ {
				if g, w := got.HasTriple(n, p, NodeID(b)), want.HasTriple(n, p, NodeID(b)); g != w {
					t.Fatalf("%s p%d: HasTriple(%d,%d) = %v, want %v", where, p, n, b, g, w)
				}
			}
		}
	}
}

// TestViewRejectsPositionalAccess: a partially masked view shares its
// parent's index positions, which are not the positions of the store it
// stands for, so position-addressed operations refuse it.
func TestViewRejectsPositionalAccess(t *testing.T) {
	st := maskFixture(t)
	p, _ := st.PredIDOf("p")
	pso := make([]*bitvec.Vector, st.NumPreds())
	pos := make([]*bitvec.Vector, st.NumPreds())
	pso[p] = bitvec.FromBits(st.PredCount(p), 1)
	pos[p] = posMaskOf(st, p, pso[p])
	v := st.View(pso, pos)
	for name, op := range map[string]func(){
		"PairAt":         func() { v.PairAt(p, 0) },
		"FindPair":       func() { v.FindPair(p, 0, 0) },
		"RestrictByMask": func() { v.RestrictByMask(pso) },
		"View":           func() { v.View(pso, pos) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a masked view did not panic", name)
				}
			}()
			op()
		}()
	}
	// A view whose masks keep each predicate whole or not at all is
	// position-compatible with the restricted store and stays usable.
	full := []*bitvec.Vector{bitvec.NewFull(st.PredCount(0))}
	whole := st.View(full, []*bitvec.Vector{bitvec.NewFull(st.PredCount(0))})
	if s, o := whole.PairAt(0, 0); whole.FindPair(0, s, o) != 0 {
		t.Fatal("unmasked view lost its positions")
	}
}
