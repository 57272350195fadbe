// Package storage implements the in-memory graph database the rest of the
// system runs on: a dictionary-encoded triple store with per-predicate
// sorted indexes (PSO and POS order), per-predicate statistics for join
// ordering, and lazily built per-predicate adjacency bit-matrix pairs for
// the SOI solver.
//
// A Store is the concrete realization of the paper's graph database
// DB = (O_DB, Σ, E_DB): the node universe O_DB contains every subject and
// object term, the alphabet Σ is the predicate set, and E_DB is the triple
// relation.
package storage

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"dualsim/internal/bitmat"
	"dualsim/internal/bitvec"
	"dualsim/internal/rdf"
)

// NodeID indexes the node universe O_DB (subjects and objects).
type NodeID = uint32

// PredID indexes the predicate alphabet Σ.
type PredID = uint32

// pair is one (subject, object) edge of a predicate.
type pair struct{ a, b NodeID }

// predIndex holds one predicate's triples in the two sort orders plus
// statistics.
type predIndex struct {
	pso       []pair // sorted by (subject, object)
	pos       []pair // sorted by (object, subject)
	distinctS int
	distinctO int

	// keep and keepPOS mark, by PSO and by POS position, the triples a
	// masked view (see View) retains of a partially kept predicate, and
	// kept counts them. Both are nil when every position is kept.
	keep, keepPOS *bitvec.Vector
	kept          int
}

// count returns the number of triples the index holds.
func (ix *predIndex) count() int {
	if ix.keep == nil {
		return len(ix.pso)
	}
	return ix.kept
}

// dict is the shared, append-only term and predicate dictionary of a
// store lineage. Snapshots derived from one another (Build, Restrict,
// Patch) all point at the same dict, so a node or predicate id decodes
// to the same term in every snapshot; each snapshot additionally records
// how much of the dictionary it can see, so terms interned by a later
// patch are invisible to (and unreachable from) earlier snapshots.
//
// Interning takes the write lock; lookups take the read lock. Slice
// elements, once appended, are never mutated, so snapshots may keep
// lock-free prefix views of terms and preds.
type dict struct {
	mu     sync.RWMutex
	terms  []rdf.Term
	termID map[string]NodeID
	preds  []string
	predID map[string]PredID
}

func newDict() *dict {
	return &dict{
		termID: make(map[string]NodeID),
		predID: make(map[string]PredID),
	}
}

func (d *dict) internTerm(t rdf.Term) NodeID {
	key := t.Key()
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.termID[key]; ok {
		return id
	}
	id := NodeID(len(d.terms))
	d.terms = append(d.terms, t)
	d.termID[key] = id
	return id
}

func (d *dict) internPred(p string) PredID {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.predID[p]; ok {
		return id
	}
	id := PredID(len(d.preds))
	d.preds = append(d.preds, p)
	d.predID[p] = id
	return id
}

func (d *dict) lookupTerm(key string) (NodeID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.termID[key]
	return id, ok
}

func (d *dict) lookupPred(p string) (PredID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.predID[p]
	return id, ok
}

// views returns prefix snapshots of the term and predicate tables. The
// returned slice headers are stable: later appends may grow the shared
// backing array beyond their length but never touch the prefix.
func (d *dict) views() ([]rdf.Term, []string) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.terms, d.preds
}

// Store is an immutable-after-Build triple store snapshot. The zero
// value is not usable; call New. Snapshots derived via Restrict, Patch or
// View share the receiver's dictionary (see dict); the snapshot itself
// never changes after Build, so concurrent readers need no locking.
type Store struct {
	d     *dict
	terms []rdf.Term // prefix view of d.terms visible to this snapshot
	preds []string   // prefix view of d.preds visible to this snapshot

	byPred []predIndex
	nTrip  int
	built  bool
	masked bool // a View with at least one partially kept predicate

	matMu sync.Mutex
	mats  map[PredID]bitmat.Pair

	// staging, discarded by Build
	staged []tripleIDs
}

type tripleIDs struct {
	s NodeID
	p PredID
	o NodeID
}

// New returns an empty store with a fresh dictionary.
func New() *Store {
	return &Store{
		d:    newDict(),
		mats: make(map[PredID]bitmat.Pair),
	}
}

// Add stages one triple. Must be called before Build.
func (st *Store) Add(t rdf.Triple) error {
	if st.built {
		return fmt.Errorf("storage: Add after Build")
	}
	if err := t.Validate(); err != nil {
		return err
	}
	st.stage(t)
	st.terms, st.preds = st.d.views()
	return nil
}

// AddAll stages a batch of triples, atomically: the whole batch is
// validated up front, and on error nothing is staged and no term of the
// batch is interned — the store is exactly as it was before the call.
func (st *Store) AddAll(ts []rdf.Triple) error {
	if st.built {
		return fmt.Errorf("storage: Add after Build")
	}
	for i, t := range ts {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("storage: triple %d of %d: %w", i, len(ts), err)
		}
	}
	for _, t := range ts {
		st.stage(t)
	}
	st.terms, st.preds = st.d.views()
	return nil
}

// stage interns a validated triple and appends it to the staging area.
// Callers refresh the snapshot's dictionary views once per batch, not
// per triple (staging is single-owner: the dict cannot be shared before
// Build, so the views only serve the store's own pre-Build accessors).
func (st *Store) stage(t rdf.Triple) {
	st.staged = append(st.staged, tripleIDs{
		s: st.d.internTerm(t.S),
		p: st.d.internPred(t.P),
		o: st.d.internTerm(t.O),
	})
}

// Build finalizes the store: triples are deduplicated, both index orders
// are sorted, and statistics are computed. Build is idempotent.
func (st *Store) Build() {
	if st.built {
		return
	}
	st.terms, st.preds = st.d.views()
	st.byPred = make([]predIndex, len(st.preds))
	perPred := make([][]pair, len(st.preds))
	for _, t := range st.staged {
		perPred[t.p] = append(perPred[t.p], pair{a: t.s, b: t.o})
	}
	st.staged = nil
	st.nTrip = 0
	for p := range perPred {
		pso := dedupSorted(perPred[p])
		pos := make([]pair, len(pso))
		for i, e := range pso {
			pos[i] = pair{a: e.b, b: e.a}
		}
		sortPairs(pos)
		st.byPred[p] = predIndex{
			pso:       pso,
			pos:       pos,
			distinctS: countDistinctFirst(pso),
			distinctO: countDistinctFirst(pos),
		}
		st.nTrip += len(pso)
	}
	st.built = true
}

func sortPairs(ps []pair) {
	slices.SortFunc(ps, func(x, y pair) int {
		if c := cmp.Compare(x.a, y.a); c != 0 {
			return c
		}
		return cmp.Compare(x.b, y.b)
	})
}

func dedupSorted(ps []pair) []pair {
	sortPairs(ps)
	if len(ps) < 2 {
		return ps
	}
	out := ps[:1]
	for _, e := range ps[1:] {
		if e != out[len(out)-1] {
			out = append(out, e)
		}
	}
	return out
}

func countDistinctFirst(ps []pair) int {
	n := 0
	for i, e := range ps {
		if i == 0 || e.a != ps[i-1].a {
			n++
		}
	}
	return n
}

func (st *Store) mustBeBuilt() {
	if !st.built {
		panic("storage: access before Build")
	}
}

// mustBeUnmasked guards the operations that address triples by index
// position or copy the index arrays: a masked view shares its parent's
// positions, which are not the positions of the store it represents.
func (st *Store) mustBeUnmasked(op string) {
	st.mustBeBuilt()
	if st.masked {
		panic("storage: " + op + " on a masked view")
	}
}

// NumTriples returns |E_DB| (after deduplication).
func (st *Store) NumTriples() int { st.mustBeBuilt(); return st.nTrip }

// NumNodes returns |O_DB|, the dimension of all bit-vectors and matrices.
func (st *Store) NumNodes() int { return len(st.terms) }

// NumPreds returns |Σ|.
func (st *Store) NumPreds() int { return len(st.preds) }

// Term decodes a node id.
func (st *Store) Term(id NodeID) rdf.Term { return st.terms[id] }

// TermID looks up a term. Terms interned into the shared dictionary
// after this snapshot was taken (by a Patch on a derived store) are
// reported as absent — they cannot occur in this snapshot's triples.
func (st *Store) TermID(t rdf.Term) (NodeID, bool) {
	id, ok := st.d.lookupTerm(t.Key())
	if !ok || int(id) >= len(st.terms) {
		return 0, false
	}
	return id, true
}

// Pred decodes a predicate id.
func (st *Store) Pred(id PredID) string { return st.preds[id] }

// PredIDOf looks up a predicate by IRI. Like TermID, predicates interned
// after this snapshot was taken are reported as absent.
func (st *Store) PredIDOf(p string) (PredID, bool) {
	id, ok := st.d.lookupPred(p)
	if !ok || int(id) >= len(st.preds) {
		return 0, false
	}
	return id, true
}

// PredCount returns the number of p-triples.
func (st *Store) PredCount(p PredID) int {
	st.mustBeBuilt()
	return st.byPred[p].count()
}

// DistinctSubjects returns the number of distinct subjects under p.
func (st *Store) DistinctSubjects(p PredID) int {
	st.mustBeBuilt()
	return st.byPred[p].distinctS
}

// DistinctObjects returns the number of distinct objects under p.
func (st *Store) DistinctObjects(p PredID) int {
	st.mustBeBuilt()
	return st.byPred[p].distinctO
}

// span returns the bounds [lo, hi) of the run of ps whose first
// component equals key.
func span(ps []pair, key NodeID) (lo, hi int) {
	lo, hi = 0, len(ps)
	for lo < hi { // first position with a >= key
		m := int(uint(lo+hi) >> 1)
		if ps[m].a < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	hi = len(ps)
	for l := lo; l < hi; { // first position with a > key
		m := int(uint(l+hi) >> 1)
		if ps[m].a <= key {
			l = m + 1
		} else {
			hi = m
		}
	}
	return lo, hi
}

// find returns the position of (a, b) in ps, or -1.
func find(ps []pair, a, b NodeID) int {
	lo, hi := 0, len(ps)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if e := ps[m]; e.a < a || (e.a == a && e.b < b) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(ps) && ps[lo] == (pair{a, b}) {
		return lo
	}
	return -1
}

// Cursor walks one run of a predicate's index in place — the pairs of
// one subject, of one object, or all of them — skipping the positions a
// masked view does not keep. It copies nothing. The zero Cursor is
// exhausted.
type Cursor struct {
	ps    []pair
	keep  *bitvec.Vector // nil: every position in [i, hi) is kept
	i, hi int
	pos   bool // ps is in POS order: yield its pairs swapped
}

// Next returns the next (subject, object) pair, or ok == false once the
// run is exhausted.
//
//dualsim:hotpath
func (c *Cursor) Next() (s, o NodeID, ok bool) {
	i := c.i
	if c.keep != nil {
		if i = c.keep.NextSetBefore(i, c.hi); i < 0 {
			i = c.hi
		}
	}
	if i >= c.hi {
		c.i = c.hi
		return 0, 0, false
	}
	c.i = i + 1
	e := c.ps[i]
	if c.pos {
		return e.b, e.a, true
	}
	return e.a, e.b, true
}

// BySubject returns a cursor over the p-triples with subject s, in
// ascending object order — the forward map F_p(s), read in place.
//
//dualsim:hotpath
func (st *Store) BySubject(p PredID, s NodeID) Cursor {
	st.mustBeBuilt()
	ix := &st.byPred[p]
	lo, hi := span(ix.pso, s)
	return Cursor{ps: ix.pso, keep: ix.keep, i: lo, hi: hi}
}

// ByObject returns a cursor over the p-triples with object o, in
// ascending subject order — the backward map B_p(o), read in place.
//
//dualsim:hotpath
func (st *Store) ByObject(p PredID, o NodeID) Cursor {
	st.mustBeBuilt()
	ix := &st.byPred[p]
	lo, hi := span(ix.pos, o)
	return Cursor{ps: ix.pos, keep: ix.keepPOS, i: lo, hi: hi, pos: true}
}

// AllPairs returns a cursor over every p-triple in PSO order.
//
//dualsim:hotpath
func (st *Store) AllPairs(p PredID) Cursor {
	st.mustBeBuilt()
	ix := &st.byPred[p]
	return Cursor{ps: ix.pso, keep: ix.keep, hi: len(ix.pso)}
}

// Objects returns the sorted objects o with (s, p, o) ∈ E_DB — the forward
// map F_p(s).
func (st *Store) Objects(p PredID, s NodeID) []NodeID {
	c := st.BySubject(p, s)
	out := make([]NodeID, 0, c.hi-c.i)
	for _, o, ok := c.Next(); ok; _, o, ok = c.Next() {
		out = append(out, o)
	}
	return out
}

// Subjects returns the sorted subjects s with (s, p, o) ∈ E_DB — the
// backward map B_p(o).
func (st *Store) Subjects(p PredID, o NodeID) []NodeID {
	c := st.ByObject(p, o)
	out := make([]NodeID, 0, c.hi-c.i)
	for s, _, ok := c.Next(); ok; s, _, ok = c.Next() {
		out = append(out, s)
	}
	return out
}

// HasTriple reports whether (s, p, o) ∈ E_DB.
func (st *Store) HasTriple(s NodeID, p PredID, o NodeID) bool {
	st.mustBeBuilt()
	ix := &st.byPred[p]
	i := find(ix.pso, s, o)
	return i >= 0 && (ix.keep == nil || ix.keep.Get(i))
}

// ForEachPair calls fn for every (s, o) pair of predicate p in PSO order;
// stops early if fn returns false.
func (st *Store) ForEachPair(p PredID, fn func(s, o NodeID) bool) {
	c := st.AllPairs(p)
	for s, o, ok := c.Next(); ok; s, o, ok = c.Next() {
		if !fn(s, o) {
			return
		}
	}
}

// ForEachTriple calls fn for every triple in (pred, subject, object)
// order; stops early if fn returns false.
func (st *Store) ForEachTriple(fn func(s NodeID, p PredID, o NodeID) bool) {
	st.mustBeBuilt()
	for p := range st.byPred {
		c := st.AllPairs(PredID(p))
		for s, o, ok := c.Next(); ok; s, o, ok = c.Next() {
			if !fn(s, PredID(p), o) {
				return
			}
		}
	}
}

// Triples materializes the whole store as decoded rdf triples (test and
// export helper).
func (st *Store) Triples() []rdf.Triple {
	st.mustBeBuilt()
	out := make([]rdf.Triple, 0, st.nTrip)
	st.ForEachTriple(func(s NodeID, p PredID, o NodeID) bool {
		out = append(out, rdf.Triple{S: st.terms[s], P: st.preds[p], O: st.terms[o]})
		return true
	})
	return out
}

// Matrices returns the adjacency bit-matrix pair (F_p, B_p) for predicate
// p, building and caching it on first use — per §3.3 only the matrices a
// pattern actually mentions are ever materialized.
func (st *Store) Matrices(p PredID) bitmat.Pair {
	st.mustBeBuilt()
	st.matMu.Lock()
	defer st.matMu.Unlock()
	if m, ok := st.mats[p]; ok {
		return m
	}
	cells := make([]bitmat.Cell, 0, st.byPred[p].count())
	c := st.AllPairs(p)
	for s, o, ok := c.Next(); ok; s, o, ok = c.Next() {
		cells = append(cells, bitmat.Cell{Row: s, Col: o})
	}
	m := bitmat.NewPair(st.NumNodes(), cells)
	st.mats[p] = m
	return m
}

// Restrict builds a new store over the same dictionaries containing only
// the triples accepted by keep. Node and predicate ids remain valid across
// the restriction, so solution mappings computed against the restricted
// store compare directly with ones from the original — this is how the
// pruned database of the paper's Sect. 5 is represented.
func (st *Store) Restrict(keep func(s NodeID, p PredID, o NodeID) bool) *Store {
	st.mustBeUnmasked("Restrict")
	out := &Store{
		d:     st.d,
		terms: st.terms,
		preds: st.preds,
		mats:  make(map[PredID]bitmat.Pair),
	}
	out.byPred = make([]predIndex, len(st.preds))
	for p := range st.byPred {
		var kept []pair
		for _, e := range st.byPred[p].pso {
			if keep(e.a, PredID(p), e.b) {
				kept = append(kept, e)
			}
		}
		pos := make([]pair, len(kept))
		for i, e := range kept {
			pos[i] = pair{a: e.b, b: e.a}
		}
		sortPairs(pos)
		out.byPred[p] = predIndex{
			pso:       kept,
			pos:       pos,
			distinctS: countDistinctFirst(kept),
			distinctO: countDistinctFirst(pos),
		}
		out.nTrip += len(kept)
	}
	out.built = true
	return out
}

// PairAt returns the i-th (subject, object) pair of predicate p in PSO
// order; 0 ≤ i < PredCount(p).
func (st *Store) PairAt(p PredID, i int) (NodeID, NodeID) {
	st.mustBeUnmasked("PairAt")
	e := st.byPred[p].pso[i]
	return e.a, e.b
}

// FindPair returns the PSO position of (s, p, o), or -1 if absent. The
// position is stable for the lifetime of the store and is used to address
// triples in pruning masks.
func (st *Store) FindPair(p PredID, s, o NodeID) int {
	st.mustBeUnmasked("FindPair")
	return find(st.byPred[p].pso, s, o)
}

// RestrictByMask builds a restricted store (shared dictionaries, cf.
// Restrict) keeping exactly the triples whose PSO position is set in the
// predicate's mask. A nil mask drops the whole predicate.
func (st *Store) RestrictByMask(masks []*bitvec.Vector) *Store {
	st.mustBeUnmasked("RestrictByMask")
	out := &Store{
		d:     st.d,
		terms: st.terms,
		preds: st.preds,
		mats:  make(map[PredID]bitmat.Pair),
	}
	out.byPred = make([]predIndex, len(st.preds))
	for p := range st.byPred {
		var kept []pair
		if p < len(masks) && masks[p] != nil {
			src := st.byPred[p].pso
			masks[p].ForEach(func(i int) bool {
				kept = append(kept, src[i])
				return true
			})
		}
		pos := make([]pair, len(kept))
		for i, e := range kept {
			pos[i] = pair{a: e.b, b: e.a}
		}
		sortPairs(pos)
		out.byPred[p] = predIndex{
			pso:       kept,
			pos:       pos,
			distinctS: countDistinctFirst(kept),
			distinctO: countDistinctFirst(pos),
		}
		out.nTrip += len(kept)
	}
	out.built = true
	return out
}

// MarkPairs marks the p-triples (s, p, o) with s ∈ subj and o ∈ obj:
// those at PSO positions [lo, hi) in pso, and those at POS positions
// [lo, hi) in pos. Both masks have PredCount(p) bits; marking every
// range of [0, PredCount(p)) yields the mask pair View takes. The run of
// a subject not in subj (an object not in obj) is skipped whole.
func (st *Store) MarkPairs(p PredID, subj, obj, pso, pos *bitvec.Vector, lo, hi int) {
	st.mustBeUnmasked("MarkPairs")
	ix := &st.byPred[p]
	markRuns(ix.pso[lo:hi], lo, subj, obj, pso)
	markRuns(ix.pos[lo:hi], lo, obj, subj, pos)
}

// markRuns sets base+i in dst for every ps[i] = (a, b) with a ∈ first
// and b ∈ second.
func markRuns(ps []pair, base int, first, second, dst *bitvec.Vector) {
	fw, sw := first.Words(), second.Words()
	for i := 0; i < len(ps); {
		a := ps[i].a
		if fw[a>>6]&(1<<(a&63)) == 0 {
			for i++; i < len(ps) && ps[i].a == a; i++ {
			}
			continue
		}
		for ; i < len(ps) && ps[i].a == a; i++ {
			if b := ps[i].b; sw[b>>6]&(1<<(b&63)) != 0 {
				dst.Set(base + i)
			}
		}
	}
}

// View returns a masked view of st: a store that shares st's
// dictionaries and index arrays and holds exactly the triples whose PSO
// position is set in the predicate's pso mask — the triples
// RestrictByMask(pso) would copy. pos[p] must mark the same triples by
// POS position (MarkPairs fills both). A nil pso mask drops the
// predicate. The view's statistics are those of the kept triples, so a
// planner sees the same counts as on the restricted store; reads walk
// the shared indexes and skip unkept positions. Building it copies no
// triple.
func (st *Store) View(pso, pos []*bitvec.Vector) *Store {
	st.mustBeUnmasked("View")
	out := &Store{
		d:      st.d,
		terms:  st.terms,
		preds:  st.preds,
		byPred: make([]predIndex, len(st.byPred)),
		built:  true,
		mats:   make(map[PredID]bitmat.Pair),
	}
	for p := range st.byPred {
		if p >= len(pso) || pso[p] == nil {
			continue
		}
		ix := &st.byPred[p]
		keep, keepPOS := pso[p], pos[p]
		if keep.Len() != len(ix.pso) || keepPOS == nil || keepPOS.Len() != len(ix.pos) {
			panic("storage: View masks do not match the store's indexes")
		}
		n := keep.Count()
		switch n {
		case 0:
			continue
		case len(ix.pso):
			out.byPred[p] = *ix
		default:
			out.byPred[p] = predIndex{
				pso:       ix.pso,
				pos:       ix.pos,
				distinctS: countDistinctKept(ix.pso, keep),
				distinctO: countDistinctKept(ix.pos, keepPOS),
				keep:      keep,
				keepPOS:   keepPOS,
				kept:      n,
			}
			out.masked = true
		}
		out.nTrip += n
	}
	return out
}

// countDistinctKept is countDistinctFirst over the positions set in keep.
func countDistinctKept(ps []pair, keep *bitvec.Vector) int {
	n := 0
	var last NodeID
	keep.ForEach(func(i int) bool {
		if a := ps[i].a; n == 0 || a != last {
			n++
			last = a
		}
		return true
	})
	return n
}

// FromTriples is a convenience constructor: stage, build, return.
func FromTriples(ts []rdf.Triple) (*Store, error) {
	st := New()
	if err := st.AddAll(ts); err != nil {
		return nil, err
	}
	st.Build()
	return st, nil
}
