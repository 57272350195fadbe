package engine

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// rowKey is the tests' reference row key: the ids' bytes as a string.
func rowKey(row []storage.NodeID) string {
	buf := make([]byte, 4*len(row))
	for i, v := range row {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	return string(buf)
}

// randomID draws ids near 0 and near Unbound (Unbound itself included),
// so rows collide often and the extreme values are always present.
func randomID(r *rand.Rand) storage.NodeID {
	switch r.Intn(3) {
	case 0:
		return storage.NodeID(r.Intn(4))
	case 1:
		return Unbound - storage.NodeID(r.Intn(3))
	default:
		return storage.NodeID(r.Uint32())
	}
}

// checkSet inserts rows into a fresh rowSet and compares every answer
// with a map[string]int reference: the added flag, dense ids in
// insertion order, and find for present and absent keys.
func checkSet(t *testing.T, name string, width int, rows [][]storage.NodeID) {
	t.Helper()
	var s rowSet
	s.reset(width)
	ids := make(map[string]int)
	for i, row := range rows {
		k := rowKey(row)
		want, seen := ids[k]
		if !seen {
			want = len(ids)
			ids[k] = want
		}
		id, added := s.insert(row)
		if added == seen || id != want {
			t.Fatalf("%s: insert #%d %v = (%d, %v), want (%d, %v)", name, i, row, id, added, want, !seen)
		}
		// The caller owns its row: changing it must not reach the set.
		for j := range row {
			row[j] ^= 0x5a5a5a5a
		}
		_, present := ids[rowKey(row)]
		if _, ok := s.find(row); ok != present {
			t.Fatalf("%s: find of a changed row disagrees with the reference", name)
		}
		for j := range row {
			row[j] ^= 0x5a5a5a5a
		}
	}
	if s.n != len(ids) {
		t.Fatalf("%s: %d keys, want %d", name, s.n, len(ids))
	}
	for _, row := range rows {
		if id, ok := s.find(row); !ok || id != ids[rowKey(row)] {
			t.Fatalf("%s: find %v = (%d, %v), want (%d, true)", name, row, id, ok, ids[rowKey(row)])
		}
	}
}

func TestRowSetMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for width := 0; width <= 8; width++ {
		for round := 0; round < 20; round++ {
			rows := make([][]storage.NodeID, r.Intn(600))
			for i := range rows {
				rows[i] = make([]storage.NodeID, width)
				for j := range rows[i] {
					rows[i][j] = randomID(r)
				}
			}
			checkSet(t, fmt.Sprintf("width %d round %d", width, round), width, rows)
		}
	}
}

// TestRowSetNearIdenticalRows feeds rows that differ in one sequential
// id — the shape a weak hash turns into long probe chains — through many
// table and arena growths.
func TestRowSetNearIdenticalRows(t *testing.T) {
	for width := 1; width <= 8; width++ {
		for col := 0; col < width; col++ {
			var rows [][]storage.NodeID
			for i := 0; i < 5000; i++ {
				row := make([]storage.NodeID, width)
				for j := range row {
					row[j] = 7
				}
				row[col] = storage.NodeID(i / 2) // every key twice
				if i%3 == 0 {
					row[col] = Unbound - storage.NodeID(i/2)
				}
				rows = append(rows, row)
			}
			checkSet(t, fmt.Sprintf("width %d column %d", width, col), width, rows)
		}
	}
}

// TestRowSetAllocatesPerGrowth guards the flat layout: deduplicating N
// rows allocates only when the table or the arena grows — O(log N)
// times, not once per row.
func TestRowSetAllocatesPerGrowth(t *testing.T) {
	for _, n := range []int{1 << 10, 1 << 14} {
		rows := make([][]storage.NodeID, 2*n)
		for i := range rows {
			rows[i] = []storage.NodeID{storage.NodeID(i % n), 3, storage.NodeID(i % 7)}
		}
		allocs := testing.AllocsPerRun(5, func() {
			var s rowSet
			s.reset(3)
			for _, row := range rows {
				s.insert(row)
			}
		})
		if limit := 4 * bits.Len(uint(n)); allocs > float64(limit) {
			t.Errorf("deduplicating %d rows (%d keys) allocated %.0f times; want at most %d", len(rows), n, allocs, limit)
		}
	}
}

// drainRows opens it and collects its rows.
func drainRows(t *testing.T, it Iterator) [][]storage.NodeID {
	t.Helper()
	if err := it.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	var out [][]storage.NodeID
	for {
		row, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, append([]storage.NodeID(nil), row...))
	}
}

// TestReopenStartsEmpty drains the set-backed operators twice: a second
// Open must start from an empty seen-set or join index.
func TestReopenStartsEmpty(t *testing.T) {
	rows := [][]storage.NodeID{{1, 2}, {1, 2}, {3, Unbound}, {3, 4}, {1, 2}, {5, 6}}
	left := func() Iterator { return &replayIter{vars: []string{"x", "y"}, rows: rows} }
	right := &replayIter{vars: []string{"y", "z"}, rows: [][]storage.NodeID{{2, 9}, {2, 8}, {Unbound, 7}, {4, 9}}}
	cases := []struct {
		name string
		it   Iterator
		want int
	}{
		{"distinct", &distinctIter{in: left(), acct: &account{}, stats: &OperatorStats{}}, 4},
		{"limit", &limitIter{in: left(), limit: 3, offset: 1, acct: &account{}, stats: &OperatorStats{}}, 3},
		{"hashjoin", func() Iterator {
			h := newHashJoinIter(left(), right, true)
			h.acct, h.stats = &account{}, &OperatorStats{}
			return h
		}(), 16},
	}
	for _, c := range cases {
		first := drainRows(t, c.it)
		second := drainRows(t, c.it)
		if len(first) != c.want {
			t.Errorf("%s: %d rows, want %d: %v", c.name, len(first), c.want, first)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s: re-Open changed the stream:\n first  %v\n second %v", c.name, first, second)
		}
	}
}

// TestSlabRowsAreOwned drains slab-backed operators — an extend chain, a
// left hash join and a union above it — over streams that span several
// slab chunks. Each row is checked as it arrives, then overwritten and
// appended to; a later row must never change, which fails if a slab row
// is handed out with spare capacity or shares memory with another.
func TestSlabRowsAreOwned(t *testing.T) {
	st := mustStore(t, resourceFixture(t))
	scan := func(s, p, o string) Iterator {
		tp := sparql.TriplePattern{S: sparql.V(s), P: sparql.C(p), O: sparql.V(o)}
		return &scanIter{st: st, r: mustResolve(t, st, tp)}
	}
	extend := func(in Iterator, s, p, o string, leftOuter bool) Iterator {
		tp := sparql.TriplePattern{S: sparql.V(s), P: sparql.C(p), O: sparql.V(o)}
		return newExtendIter(st, in, mustResolve(t, st, tp), leftOuter)
	}
	cases := []struct {
		name  string
		build func() Iterator
	}{
		{"extend", func() Iterator {
			return extend(extend(scan("x", "p", "y"), "z", "q", "y", false), "z", "p", "w", true)
		}},
		{"hashjoin", func() Iterator {
			return newHashJoinIter(extend(scan("x", "p", "y"), "z", "q", "y", false), scan("z", "p", "w"), true)
		}},
		{"union", func() Iterator {
			return newUnionIter(extend(extend(scan("x", "p", "y"), "z", "q", "y", false), "z", "p", "w", false), scan("w", "q", "v"))
		}},
	}
	for _, c := range cases {
		want := drainRows(t, c.build())
		if len(want) <= 2*slabRows {
			t.Fatalf("%s: fixture yields %d rows; want more than two slabs", c.name, len(want))
		}
		it := c.build()
		if err := it.Open(context.Background()); err != nil {
			t.Fatal(err)
		}
		var kept [][]storage.NodeID
		for i := 0; ; i++ {
			row, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				if i != len(want) {
					t.Fatalf("%s: %d rows, want %d", c.name, i, len(want))
				}
				break
			}
			if !reflect.DeepEqual(row, want[i]) {
				t.Fatalf("%s: row %d = %v, want %v", c.name, i, row, want[i])
			}
			if cap(row) != len(row) {
				t.Fatalf("%s: row %d has spare capacity %d > %d", c.name, i, cap(row), len(row))
			}
			for j := range row {
				row[j] = 0xbad
			}
			_ = append(row, 1)
			kept = append(kept, row)
		}
		// The kept rows are still the operators' memory: appending to each
		// in order must leave its successors untouched.
		for i, row := range kept {
			for j, v := range row {
				if v != 0xbad {
					t.Fatalf("%s: row %d column %d = %d after earlier rows were appended to", c.name, i, j, v)
				}
			}
			_ = append(row, 1)
		}
	}
}
