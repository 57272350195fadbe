// Package bitvec provides fixed-length bit-vectors used to represent the
// rows of the characteristic function χS of a dual-simulation candidate
// relation, as well as per-label node summaries (the vectors f_a and b_a of
// the paper's inequality (13)).
//
// Two representations are provided:
//
//   - Vector: a dense, word-packed bit-vector. This is the working
//     representation for χS rows and multiplication results.
//   - Compressed: a run-length ("gap-length") encoded bit-vector in the
//     spirit of EWAH/WAH. The paper (§3.3, §5.1) points out that gap-length
//     encoded storage keeps the adjacency matrices small; Compressed is the
//     at-rest format for matrix rows and summaries.
//
// All operations treat vectors as having a fixed logical length Len; bits
// at positions ≥ Len are always zero.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const (
	wordBits = 64
	wordLog  = 6
	wordMask = wordBits - 1
)

// Vector is a dense bit-vector of fixed length.
//
// The zero value is an empty vector of length 0; use New for a sized one.
type Vector struct {
	words []uint64
	n     int
}

// New returns a zeroed Vector with n bits.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{words: make([]uint64, wordsFor(n)), n: n}
}

// NewFull returns a Vector with n bits, all set — the vector 1 used to
// initialize S0 = V1 × V2 (inequality (12) of the paper).
func NewFull(n int) *Vector {
	v := New(n)
	v.Fill()
	return v
}

// FromBits returns a Vector of length n whose set positions are given.
func FromBits(n int, positions ...int) *Vector {
	v := New(n)
	for _, p := range positions {
		v.Set(p)
	}
	return v
}

func wordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// Len returns the logical number of bits.
func (v *Vector) Len() int { return v.n }

// Set sets bit i to 1.
//
//dualsim:hotpath
func (v *Vector) Set(i int) {
	v.boundsCheck(i)
	v.words[i>>wordLog] |= 1 << uint(i&wordMask)
}

// Clear sets bit i to 0.
//
//dualsim:hotpath
func (v *Vector) Clear(i int) {
	v.boundsCheck(i)
	v.words[i>>wordLog] &^= 1 << uint(i&wordMask)
}

// Get reports whether bit i is set.
//
//dualsim:hotpath
func (v *Vector) Get(i int) bool {
	v.boundsCheck(i)
	return v.words[i>>wordLog]&(1<<uint(i&wordMask)) != 0
}

func (v *Vector) boundsCheck(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Fill sets every bit.
func (v *Vector) Fill() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.trim()
}

// Zero clears every bit.
//
//dualsim:hotpath
func (v *Vector) Zero() {
	clear(v.words)
}

// trim clears bits beyond the logical length in the last word.
func (v *Vector) trim() {
	if rem := v.n & wordMask; rem != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << uint(rem)) - 1
	}
	if v.n == 0 && len(v.words) > 0 {
		v.words[0] = 0
	}
}

// Reset reinitializes v to a zeroed vector of n bits, reusing the
// backing array when it is large enough. It is the re-use hook for
// pooled vectors (sync.Pool arenas hand out vectors of varying length).
func (v *Vector) Reset(n int) {
	if n < 0 {
		panic("bitvec: negative length")
	}
	w := wordsFor(n)
	if cap(v.words) < w {
		v.words = make([]uint64, w)
	} else {
		v.words = v.words[:w]
		clear(v.words)
	}
	v.n = n
}

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	w := &Vector{words: make([]uint64, len(v.words)), n: v.n}
	copy(w.words, v.words)
	return w
}

// CopyFrom overwrites v with the contents of w. The lengths must match.
//
//dualsim:hotpath
func (v *Vector) CopyFrom(w *Vector) {
	v.sameLen(w)
	copy(v.words, w.words)
}

func (v *Vector) sameLen(w *Vector) {
	if v.n != w.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, w.n))
	}
}

// And replaces v with v ∧ w and reports whether v changed. This is the
// component-wise conjunction used in the SOI update step
// χS'(v) := χS(v) ∧ r.
//
//dualsim:hotpath
func (v *Vector) And(w *Vector) bool {
	v.sameLen(w)
	changed := false
	for i, x := range w.words {
		old := v.words[i]
		nw := old & x
		if nw != old {
			v.words[i] = nw
			changed = true
		}
	}
	return changed
}

// Or replaces v with v ∨ w and reports whether v changed.
//
//dualsim:hotpath
func (v *Vector) Or(w *Vector) bool {
	v.sameLen(w)
	changed := false
	for i, x := range w.words {
		old := v.words[i]
		nw := old | x
		if nw != old {
			v.words[i] = nw
			changed = true
		}
	}
	return changed
}

// AndNot replaces v with v ∧ ¬w and reports whether v changed.
//
//dualsim:hotpath
func (v *Vector) AndNot(w *Vector) bool {
	v.sameLen(w)
	changed := false
	for i, x := range w.words {
		old := v.words[i]
		nw := old &^ x
		if nw != old {
			v.words[i] = nw
			changed = true
		}
	}
	return changed
}

// Intersects reports whether v ∧ w has any set bit, i.e. the non-disjointness
// test of the paper's equation (4): F_a(v') ∩ χS(w) ≠ ∅.
//
//dualsim:hotpath
func (v *Vector) Intersects(w *Vector) bool {
	v.sameLen(w)
	for i, x := range w.words {
		if v.words[i]&x != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every set bit of v is also set in w — the
// component-wise ≤ of the paper's inequalities (10).
//
//dualsim:hotpath
func (v *Vector) SubsetOf(w *Vector) bool {
	v.sameLen(w)
	for i, x := range v.words {
		if x&^w.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether v and w contain exactly the same bits.
func (v *Vector) Equal(w *Vector) bool {
	if v.n != w.n {
		return false
	}
	for i, x := range v.words {
		if x != w.words[i] {
			return false
		}
	}
	return true
}

// IsEmpty reports whether no bit is set.
func (v *Vector) IsEmpty() bool {
	for _, x := range v.words {
		if x != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of set bits (population count).
//
//dualsim:hotpath
func (v *Vector) Count() int {
	c := 0
	for _, x := range v.words {
		c += bits.OnesCount64(x)
	}
	return c
}

// Any returns the position of an arbitrary (the lowest) set bit, or -1.
//
//dualsim:hotpath
func (v *Vector) Any() int {
	for i, x := range v.words {
		if x != 0 {
			return i*wordBits + bits.TrailingZeros64(x)
		}
	}
	return -1
}

// NextSet returns the position of the first set bit at or after i, or -1.
func (v *Vector) NextSet(i int) int { return v.NextSetBefore(i, v.n) }

// NextSetBefore returns the position of the first set bit in [i, end),
// or -1. It reads only the words overlapping that range, so a cursor
// over a short run of a long vector stays proportional to the run.
//
//dualsim:hotpath
func (v *Vector) NextSetBefore(i, end int) int {
	if i < 0 {
		i = 0
	}
	if end > v.n {
		end = v.n
	}
	if i >= end {
		return -1
	}
	w := i >> wordLog
	x := v.words[w] >> uint(i&wordMask)
	if x == 0 {
		last := (end - 1) >> wordLog
		for w++; w <= last && v.words[w] == 0; w++ {
		}
		if w > last {
			return -1
		}
		i, x = w*wordBits, v.words[w]
	}
	if j := i + bits.TrailingZeros64(x); j < end {
		return j
	}
	return -1
}

// ForEach calls fn for every set bit in ascending order. If fn returns
// false, iteration stops early.
func (v *Vector) ForEach(fn func(i int) bool) {
	for w, x := range v.words {
		base := w * wordBits
		for x != 0 {
			t := bits.TrailingZeros64(x)
			if !fn(base + t) {
				return
			}
			x &= x - 1
		}
	}
}

// Bits returns the positions of all set bits in ascending order.
func (v *Vector) Bits() []int {
	out := make([]int, 0, v.Count())
	v.ForEach(func(i int) bool { out = append(out, i); return true })
	return out
}

// Words exposes the backing words (read-only by convention); used by the
// bit-matrix multiplication kernels.
func (v *Vector) Words() []uint64 { return v.words }

// String renders the vector as a brace-enclosed list of set positions,
// e.g. "{0, 3, 17}".
func (v *Vector) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	v.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}

// AndInto computes dst = a ∧ b without modifying a or b.
func AndInto(dst, a, b *Vector) {
	a.sameLen(b)
	a.sameLen(dst)
	for i := range dst.words {
		dst.words[i] = a.words[i] & b.words[i]
	}
}

// OrInto computes dst = a ∨ b without modifying a or b.
func OrInto(dst, a, b *Vector) {
	a.sameLen(b)
	a.sameLen(dst)
	for i := range dst.words {
		dst.words[i] = a.words[i] | b.words[i]
	}
}
