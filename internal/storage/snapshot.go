package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"dualsim/internal/bitmat"
	"dualsim/internal/rdf"
)

// This file implements the binary serialization of a built Store — the
// payload of the durable snapshot files written by internal/persist.
// The codec lives here because it walks the store's internals (the
// dictionary tables and the per-predicate PSO runs); file framing,
// versioning, epochs and integrity checks are the persist layer's job.
//
// Body layout (all integers unsigned varints unless noted):
//
//	nTerms, then per term: 1 byte kind, length-prefixed value
//	nPreds, then per predicate: length-prefixed IRI
//	per predicate, in id order: pair count, then the PSO run with the
//	subject delta-encoded against the previous pair's subject and the
//	object raw
//
// Only the PSO order is stored; DecodeSnapshot rebuilds the POS order,
// the distinct counts and the dictionary maps — still far cheaper than
// re-parsing and re-interning an N-Triples dump (see bench.Persist).

// Sanity bounds for decoding untrusted bytes: a count beyond these is
// corruption (the CRC upstream should have caught it), not a real store.
const (
	maxSnapshotElems = 1 << 31
	maxSnapshotValue = 1 << 28
)

// EncodeSnapshot writes the store body to w. The store must be built.
func (st *Store) EncodeSnapshot(w io.Writer) error {
	st.mustBeUnmasked("EncodeSnapshot")
	bw := bufio.NewWriterSize(w, 1<<16)
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		bw.Write(scratch[:n]) // bufio latches the first error; Flush reports it
	}
	putString := func(s string) {
		putUvarint(uint64(len(s)))
		bw.WriteString(s)
	}

	putUvarint(uint64(len(st.terms)))
	for _, t := range st.terms {
		bw.WriteByte(byte(t.Kind))
		putString(t.Value)
	}
	putUvarint(uint64(len(st.preds)))
	for _, p := range st.preds {
		putString(p)
	}
	for p := range st.byPred {
		pso := st.byPred[p].pso
		putUvarint(uint64(len(pso)))
		prev := NodeID(0)
		for _, e := range pso {
			putUvarint(uint64(e.a - prev))
			putUvarint(uint64(e.b))
			prev = e.a
		}
	}
	return bw.Flush()
}

// DecodeSnapshot reconstructs a built store (with a fresh dictionary)
// from a body written by EncodeSnapshot. It validates structural
// invariants — node ids in range, PSO runs strictly sorted — so a
// corrupted body fails loudly instead of producing a store with broken
// binary-search indexes.
func DecodeSnapshot(r io.Reader) (*Store, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("storage: reading snapshot body: %w", err)
	}
	return DecodeSnapshotBytes(buf)
}

// DecodeSnapshotBytes is DecodeSnapshot over an in-memory body — the
// fast path the boot-critical persist layer uses (the snapshot file is
// already in memory for its checksum pass; decoding straight off the
// slice skips a copy and all buffered-reader overhead).
func DecodeSnapshotBytes(buf []byte) (*Store, error) {
	dec := snapDecoder{buf: buf}

	// Element counts are additionally bounded by the bytes actually
	// present (a term needs ≥ 2 bytes, a predicate ≥ 1, a pair ≥ 2), so
	// a corrupt count fails cleanly instead of sizing a giant
	// preallocation.
	nTerms, err := dec.uvarint("term count", min(maxSnapshotElems, uint64(len(buf))/2))
	if err != nil {
		return nil, err
	}
	d := newDict()
	d.terms = make([]rdf.Term, 0, nTerms)
	d.termID = make(map[string]NodeID, nTerms)
	for i := uint64(0); i < nTerms; i++ {
		kind, err := dec.byte("term kind")
		if err != nil {
			return nil, err
		}
		if rdf.Kind(kind) != rdf.IRI && rdf.Kind(kind) != rdf.Literal {
			return nil, fmt.Errorf("storage: snapshot term %d has unknown kind %d", i, kind)
		}
		val, err := dec.string("term")
		if err != nil {
			return nil, err
		}
		t := rdf.Term{Kind: rdf.Kind(kind), Value: val}
		d.termID[t.Key()] = NodeID(len(d.terms))
		d.terms = append(d.terms, t)
	}

	nPreds, err := dec.uvarint("predicate count", min(maxSnapshotElems, uint64(dec.remaining())))
	if err != nil {
		return nil, err
	}
	d.preds = make([]string, 0, nPreds)
	d.predID = make(map[string]PredID, nPreds)
	for i := uint64(0); i < nPreds; i++ {
		p, err := dec.string("predicate")
		if err != nil {
			return nil, err
		}
		d.predID[p] = PredID(len(d.preds))
		d.preds = append(d.preds, p)
	}

	st := &Store{d: d, mats: make(map[PredID]bitmat.Pair), built: true}
	st.terms, st.preds = d.views()
	st.byPred = make([]predIndex, nPreds)
	var counts []uint32 // counting-sort scratch, shared across predicates
	for p := range st.byPred {
		n, err := dec.uvarint("pair count", min(maxSnapshotElems, uint64(dec.remaining())/2))
		if err != nil {
			return nil, err
		}
		pso := make([]pair, n)
		prev := uint64(0)
		for i := uint64(0); i < n; i++ {
			da, err := dec.uvarint("subject delta", maxSnapshotElems)
			if err != nil {
				return nil, err
			}
			b, err := dec.uvarint("object id", maxSnapshotElems)
			if err != nil {
				return nil, err
			}
			a := prev + da
			if a >= nTerms || b >= nTerms {
				return nil, fmt.Errorf("storage: snapshot pair (%d, %d) of predicate %d outside the %d-term universe", a, b, p, nTerms)
			}
			if i > 0 && da == 0 && pso[i-1].b >= NodeID(b) {
				return nil, fmt.Errorf("storage: snapshot PSO run of predicate %d is not strictly sorted at pair %d", p, i)
			}
			pso[i] = pair{a: NodeID(a), b: NodeID(b)}
			prev = a
		}
		pos := make([]pair, len(pso))
		if countingSortWins(len(pso), int(nTerms)) {
			if counts == nil {
				counts = make([]uint32, nTerms)
			}
			buildPOSCounting(pso, pos, counts)
		} else {
			for i, e := range pso {
				pos[i] = pair{a: e.b, b: e.a}
			}
			sortPairs(pos)
		}
		st.byPred[p] = predIndex{
			pso:       pso,
			pos:       pos,
			distinctS: countDistinctFirst(pso),
			distinctO: countDistinctFirst(pos),
		}
		st.nTrip += len(pso)
	}
	return st, nil
}

// countingSortWins decides whether the O(n + |terms|) counting sort
// beats the O(n log n) comparison sort for one POS run: the linear pass
// over the term space must stay comparable to the run itself, or a
// store with many tiny predicates over a huge node universe would pay
// |preds|·|terms| in scratch sweeps.
func countingSortWins(pairs, terms int) bool {
	return terms <= 8*pairs+1024
}

// buildPOSCounting fills pos with the (object, subject) reordering of a
// sorted PSO run via a stable counting sort: PSO order is ascending
// (subject, object), so for one object the subjects arrive ascending
// and land in order — pos comes out sorted by (object, subject) in one
// linear placement pass, no comparisons.
func buildPOSCounting(pso, pos []pair, counts []uint32) {
	clear(counts)
	for _, e := range pso {
		counts[e.b]++
	}
	sum := uint32(0)
	for i, c := range counts {
		counts[i] = sum
		sum += c
	}
	for _, e := range pso {
		pos[counts[e.b]] = pair{a: e.b, b: e.a}
		counts[e.b]++
	}
}

// snapDecoder walks a snapshot body slice.
type snapDecoder struct {
	buf []byte
	off int
}

func (d *snapDecoder) remaining() int { return len(d.buf) - d.off }

func (d *snapDecoder) uvarint(what string, max uint64) (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("storage: snapshot %s: truncated varint", what)
	}
	if v > max {
		return 0, fmt.Errorf("storage: snapshot %s %d exceeds bound %d", what, v, max)
	}
	d.off += n
	return v, nil
}

func (d *snapDecoder) byte(what string) (byte, error) {
	if d.off >= len(d.buf) {
		return 0, fmt.Errorf("storage: snapshot %s: unexpected end of body", what)
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *snapDecoder) string(what string) (string, error) {
	n, err := d.uvarint(what+" length", maxSnapshotValue)
	if err != nil {
		return "", err
	}
	if uint64(len(d.buf)-d.off) < n {
		return "", fmt.Errorf("storage: snapshot %s: truncated (want %d bytes, have %d)", what, n, len(d.buf)-d.off)
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}
