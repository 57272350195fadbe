package engine

import "dualsim/internal/storage"

// rowSet is the engine's one set of fixed-width rows, behind set
// semantics everywhere: the distinct and limit seen-sets, the hash-join
// key table and Result.Dedup. It is an open-addressing (linear probing)
// table over keys copied into one flat arena — callers own the rows they
// insert and may change them afterwards. Each distinct key gets a dense
// id in insertion order, which the hash join uses to chain its build
// rows per key. Width-0 rows (the unit mapping) and rows holding Unbound
// are ordinary keys.
type rowSet struct {
	width int
	arena []storage.NodeID // key id i at arena[i*width : (i+1)*width]
	// slots holds hash<<32 | id+1 for an occupied slot and 0 for an
	// empty one: the stored hash skips most key comparisons and makes
	// growing a table a pure move.
	slots []uint64
	n     int
}

// reset empties the set for keys of the given width, keeping its
// capacity for the next run.
func (s *rowSet) reset(width int) {
	s.width = width
	s.arena = s.arena[:0]
	clear(s.slots)
	s.n = 0
}

// hashRow mixes the row's ids: node ids are dense and sequential, so a
// plain combination would cluster the table's low bits.
//
//dualsim:hotpath
func hashRow(row []storage.NodeID) uint32 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range row {
		h = (h ^ uint64(v)) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return uint32(h)
}

// insert adds row (of the set's width) unless an equal key is present,
// and returns the key's id and whether it was added.
//
//dualsim:hotpath
func (s *rowSet) insert(row []storage.NodeID) (int, bool) {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	h := hashRow(row)
	mask := len(s.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		e := s.slots[i]
		if e == 0 {
			id := s.n
			s.slots[i] = uint64(h)<<32 | uint64(id+1)
			s.arena = append(s.arena, row...)
			s.n++
			return id, true
		}
		if uint32(e>>32) == h && s.equal(int(uint32(e))-1, row) {
			return int(uint32(e)) - 1, false
		}
	}
}

// find returns the id of the key equal to row, if present.
//
//dualsim:hotpath
func (s *rowSet) find(row []storage.NodeID) (int, bool) {
	if s.n == 0 {
		return 0, false
	}
	h := hashRow(row)
	mask := len(s.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		e := s.slots[i]
		if e == 0 {
			return 0, false
		}
		if uint32(e>>32) == h && s.equal(int(uint32(e))-1, row) {
			return int(uint32(e)) - 1, true
		}
	}
}

// equal reports whether key id equals row.
//
//dualsim:hotpath
func (s *rowSet) equal(id int, row []storage.NodeID) bool {
	key := s.arena[id*s.width : (id+1)*s.width]
	for i, v := range key {
		if row[i] != v {
			return false
		}
	}
	return true
}

// grow doubles the table (keeping the load factor at most 1/2) and
// re-files every slot by its stored hash.
func (s *rowSet) grow() {
	old := s.slots
	s.slots = make([]uint64, max(16, 2*len(old)))
	mask := len(s.slots) - 1
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := int(e>>32) & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = e
	}
}

// joinIndex is a hash join's build side: the build rows' values in the
// shared columns are keys of a rowSet, and the rows of each key form a
// chain in insertion order. Rows with an unbound shared column match any
// key and are kept apart as wildcards.
type joinIndex struct {
	cols        []int // shared columns of a build row
	keys        rowSet
	first, last []int // per key id: its chain's first and last row
	next        []int // per build row: the next row of its key, -1 at the end
	wildcards   []int
	key         []storage.NodeID // scratch key of add and lookup
}

func newJoinIndex(cols []int) *joinIndex {
	return &joinIndex{cols: cols, key: make([]storage.NodeID, len(cols))}
}

// reset empties the index, keeping its capacity.
func (j *joinIndex) reset() {
	j.keys.reset(len(j.cols))
	j.first, j.last, j.next = j.first[:0], j.last[:0], j.next[:0]
	j.wildcards = j.wildcards[:0]
}

// add files the next build row (rows are numbered from 0 in add order).
func (j *joinIndex) add(row []storage.NodeID) {
	i := len(j.next)
	j.next = append(j.next, -1)
	for k, c := range j.cols {
		if row[c] == Unbound {
			j.wildcards = append(j.wildcards, i)
			return
		}
		j.key[k] = row[c]
	}
	id, added := j.keys.insert(j.key)
	if added {
		j.first = append(j.first, i)
		j.last = append(j.last, i)
		return
	}
	j.next[j.last[id]] = i
	j.last[id] = i
}

// lookup returns the first build row whose key equals row's values in
// cols (the probe side's shared columns, all bound), or -1; next links
// the rest of the chain.
func (j *joinIndex) lookup(row []storage.NodeID, cols []int) int {
	for k, c := range cols {
		j.key[k] = row[c]
	}
	if id, ok := j.keys.find(j.key); ok {
		return j.first[id]
	}
	return -1
}
