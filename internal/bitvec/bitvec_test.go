package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndLen(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		v := New(n)
		if v.Len() != n {
			t.Fatalf("Len = %d, want %d", v.Len(), n)
		}
		if !v.IsEmpty() {
			t.Fatalf("new vector of %d bits not empty", n)
		}
		if v.Count() != 0 {
			t.Fatalf("Count = %d, want 0", v.Count())
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGetClear(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Get(i) {
			t.Fatalf("bit %d set in fresh vector", i)
		}
		v.Set(i)
		if !v.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := v.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	v.Clear(64)
	if v.Get(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if got := v.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
}

func TestBoundsPanics(t *testing.T) {
	v := New(10)
	for _, i := range []int{-1, 10, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Get(%d) did not panic", i)
				}
			}()
			v.Get(i)
		}()
	}
}

func TestFillAndTrim(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		v := New(n)
		v.Fill()
		if got := v.Count(); got != n {
			t.Fatalf("n=%d: Count after Fill = %d", n, got)
		}
		// No bits beyond the logical length may leak into words.
		total := 0
		for _, w := range v.Words() {
			for ; w != 0; w &= w - 1 {
				total++
			}
		}
		if total != n {
			t.Fatalf("n=%d: %d physical bits set", n, total)
		}
	}
}

func TestNewFull(t *testing.T) {
	v := NewFull(77)
	if v.Count() != 77 {
		t.Fatalf("Count = %d, want 77", v.Count())
	}
}

func TestAndOrAndNot(t *testing.T) {
	a := FromBits(10, 1, 3, 5, 7)
	b := FromBits(10, 3, 4, 5, 8)

	x := a.Clone()
	if changed := x.And(b); !changed {
		t.Fatal("And reported no change")
	}
	if want := FromBits(10, 3, 5); !x.Equal(want) {
		t.Fatalf("And = %v, want %v", x, want)
	}
	if changed := x.And(b); changed {
		t.Fatal("idempotent And reported change")
	}

	x = a.Clone()
	if changed := x.Or(b); !changed {
		t.Fatal("Or reported no change")
	}
	if want := FromBits(10, 1, 3, 4, 5, 7, 8); !x.Equal(want) {
		t.Fatalf("Or = %v, want %v", x, want)
	}

	x = a.Clone()
	if changed := x.AndNot(b); !changed {
		t.Fatal("AndNot reported no change")
	}
	if want := FromBits(10, 1, 7); !x.Equal(want) {
		t.Fatalf("AndNot = %v, want %v", x, want)
	}
}

func TestSubsetIntersect(t *testing.T) {
	a := FromBits(100, 5, 50, 99)
	b := FromBits(100, 5, 20, 50, 99)
	if !a.SubsetOf(b) {
		t.Fatal("a ⊆ b expected")
	}
	if b.SubsetOf(a) {
		t.Fatal("b ⊆ a unexpected")
	}
	if !a.Intersects(b) {
		t.Fatal("a ∩ b ≠ ∅ expected")
	}
	c := FromBits(100, 1, 2, 3)
	if a.Intersects(c) {
		t.Fatal("a ∩ c = ∅ expected")
	}
	empty := New(100)
	if !empty.SubsetOf(a) {
		t.Fatal("∅ ⊆ a expected")
	}
}

func TestAnyNextSet(t *testing.T) {
	v := New(200)
	if v.Any() != -1 {
		t.Fatal("Any on empty should be -1")
	}
	v.Set(70)
	v.Set(130)
	if got := v.Any(); got != 70 {
		t.Fatalf("Any = %d, want 70", got)
	}
	if got := v.NextSet(0); got != 70 {
		t.Fatalf("NextSet(0) = %d", got)
	}
	if got := v.NextSet(70); got != 70 {
		t.Fatalf("NextSet(70) = %d", got)
	}
	if got := v.NextSet(71); got != 130 {
		t.Fatalf("NextSet(71) = %d", got)
	}
	if got := v.NextSet(131); got != -1 {
		t.Fatalf("NextSet(131) = %d", got)
	}
	if got := v.NextSet(1000); got != -1 {
		t.Fatalf("NextSet(1000) = %d", got)
	}
}

// TestNextSetBefore compares the bounded search with a bit-by-bit scan
// on random vectors and ranges, including empty and out-of-range ones.
func TestNextSetBefore(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		n := r.Intn(300)
		v := New(n)
		density := r.Float64() / 4
		for i := 0; i < n; i++ {
			if r.Float64() < density {
				v.Set(i)
			}
		}
		i, end := r.Intn(n+20)-10, r.Intn(n+20)-10
		want := -1
		for j := max(i, 0); j < min(end, n); j++ {
			if v.Get(j) {
				want = j
				break
			}
		}
		if got := v.NextSetBefore(i, end); got != want {
			t.Fatalf("n=%d NextSetBefore(%d, %d) = %d, want %d (%s)", n, i, end, got, want, v)
		}
	}
}

func TestForEachAndBits(t *testing.T) {
	positions := []int{0, 1, 64, 65, 190}
	v := FromBits(191, positions...)
	if got := v.Bits(); len(got) != len(positions) {
		t.Fatalf("Bits = %v", got)
	} else {
		for i, p := range positions {
			if got[i] != p {
				t.Fatalf("Bits[%d] = %d, want %d", i, got[i], p)
			}
		}
	}
	// Early termination.
	seen := 0
	v.ForEach(func(i int) bool { seen++; return seen < 2 })
	if seen != 2 {
		t.Fatalf("early stop visited %d bits", seen)
	}
}

func TestString(t *testing.T) {
	v := FromBits(10, 0, 3, 7)
	if got := v.String(); got != "{0, 3, 7}" {
		t.Fatalf("String = %q", got)
	}
	if got := New(4).String(); got != "{}" {
		t.Fatalf("String = %q", got)
	}
}

func TestCopyFromCloneIndependence(t *testing.T) {
	a := FromBits(66, 1, 65)
	b := a.Clone()
	b.Set(2)
	if a.Get(2) {
		t.Fatal("Clone aliases storage")
	}
	c := New(66)
	c.CopyFrom(a)
	if !c.Equal(a) {
		t.Fatal("CopyFrom mismatch")
	}
}

func TestAndIntoOrInto(t *testing.T) {
	a := FromBits(70, 1, 3, 69)
	b := FromBits(70, 3, 4, 69)
	dst := New(70)
	AndInto(dst, a, b)
	if want := FromBits(70, 3, 69); !dst.Equal(want) {
		t.Fatalf("AndInto = %v", dst)
	}
	OrInto(dst, a, b)
	if want := FromBits(70, 1, 3, 4, 69); !dst.Equal(want) {
		t.Fatalf("OrInto = %v", dst)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	a, b := New(10), New(11)
	for name, fn := range map[string]func(){
		"And":        func() { a.And(b) },
		"Or":         func() { a.Or(b) },
		"SubsetOf":   func() { a.SubsetOf(b) },
		"Intersects": func() { a.Intersects(b) },
		"CopyFrom":   func() { a.CopyFrom(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with mismatched lengths did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// randomVector draws a vector whose density varies so compressed runs of
// both kinds are exercised.
func randomVector(r *rand.Rand, n int) *Vector {
	v := New(n)
	switch r.Intn(4) {
	case 0: // sparse
		for i := 0; i < n/20+1; i++ {
			v.Set(r.Intn(n))
		}
	case 1: // dense
		v.Fill()
		for i := 0; i < n/20+1; i++ {
			v.Clear(r.Intn(n))
		}
	case 2: // clustered
		start := r.Intn(n)
		for i := start; i < n && i < start+n/4+1; i++ {
			v.Set(i)
		}
	default: // uniform
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				v.Set(i)
			}
		}
	}
	return v
}

func TestPropertyDeMorgan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := rr.Intn(300) + 1
		a := randomVector(rr, n)
		b := randomVector(rr, n)
		// a ∧ b ⊆ a ⊆ a ∨ b, and (a∧b) ∨ (a∧¬b) = a
		ab := a.Clone()
		ab.And(b)
		aub := a.Clone()
		aub.Or(b)
		if !ab.SubsetOf(a) || !a.SubsetOf(aub) {
			return false
		}
		anb := a.Clone()
		anb.AndNot(b)
		recon := ab.Clone()
		recon.Or(anb)
		return recon.Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCountAgreesWithBits(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := rr.Intn(500) + 1
		v := randomVector(rr, n)
		return v.Count() == len(v.Bits())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySubsetIffAndFixed(t *testing.T) {
	// a ⊆ b ⟺ a ∧ b == a
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := rr.Intn(400) + 1
		a := randomVector(rr, n)
		b := randomVector(rr, n)
		ab := a.Clone()
		ab.And(b)
		return a.SubsetOf(b) == ab.Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestReset: a reset vector is indistinguishable from a fresh New(n) —
// zeroed, with the right logical length — whether it shrinks (backing
// array reused, stale bits cleared) or grows.
func TestReset(t *testing.T) {
	v := New(200)
	v.Fill()
	words := &v.Words()[0]

	v.Reset(70) // shrink: reuse backing array
	if v.Len() != 70 || !v.IsEmpty() {
		t.Fatalf("Reset(70): len=%d empty=%v", v.Len(), v.IsEmpty())
	}
	if &v.Words()[0] != words {
		t.Fatal("shrinking Reset reallocated the backing array")
	}
	if !v.Equal(New(70)) {
		t.Fatal("reset vector differs from a fresh one")
	}
	v.Set(69)
	v.Reset(66) // shrink within the same word: stale bit 69 must go
	v.Reset(70)
	if !v.IsEmpty() {
		t.Fatalf("stale bits survived Reset: %v", v)
	}

	v.Reset(1000) // grow: reallocate
	if v.Len() != 1000 || !v.IsEmpty() {
		t.Fatalf("Reset(1000): len=%d empty=%v", v.Len(), v.IsEmpty())
	}
	v.Set(999)
	if v.Count() != 1 {
		t.Fatal("grown vector unusable")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative Reset")
		}
	}()
	v.Reset(-1)
}
