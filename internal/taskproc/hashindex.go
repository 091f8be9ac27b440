package taskproc

import (
	"encoding/binary"

	"hammer/internal/chain"
)

// HashIndex maps transaction IDs to vector-list positions. It is an
// open-addressed table with linear probing whose slot array doubles when the
// load factor passes maxLoad — the paper's strategy of "expanding the length
// of the hash table" to keep probe runs short and lookups effectively O(1)
// (Algorithm 1, lines 8-9). Entries live in one flat array, so a Put into a
// pre-sized index allocates nothing. Transaction IDs are SHA-256 digests, so
// the first eight bytes are already uniformly distributed and serve directly
// as the hash.
type HashIndex struct {
	slots []indexEntry
	n     int
	// stats
	collisions int
	resizes    int
}

type indexEntry struct {
	id chain.TxID
	// pos is the vector-list position plus one; zero marks an empty slot.
	pos int32
}

// maxLoad is the occupied-slot fraction that triggers expansion.
const maxLoad = 0.75

// NewHashIndex pre-sizes the index for capacity entries.
func NewHashIndex(capacity int) *HashIndex {
	nb := 16
	for float64(capacity) > maxLoad*float64(nb) {
		nb *= 2
	}
	return &HashIndex{slots: make([]indexEntry, nb)}
}

func homeOf(id chain.TxID, mask int) int {
	return int(binary.BigEndian.Uint64(id[:8]) & uint64(mask))
}

// Put records id at position pos, expanding the table first if the insert
// would exceed the load factor.
func (ix *HashIndex) Put(id chain.TxID, pos int) {
	if float64(ix.n+1) > maxLoad*float64(len(ix.slots)) {
		ix.rehash(2 * len(ix.slots))
		ix.resizes++
	}
	if ix.insert(indexEntry{id: id, pos: int32(pos) + 1}) {
		ix.collisions++
	}
	ix.n++
}

// insert places e in the first free slot of its probe run and reports
// whether its home slot was taken.
func (ix *HashIndex) insert(e indexEntry) (probed bool) {
	mask := len(ix.slots) - 1
	i := homeOf(e.id, mask)
	for ix.slots[i].pos != 0 {
		probed = true
		i = (i + 1) & mask
	}
	ix.slots[i] = e
	return probed
}

// Get returns the position recorded for id. On a collision it walks the
// probe run sequentially (Algorithm 1, line 19's conflict path).
func (ix *HashIndex) Get(id chain.TxID) (int, bool) {
	if i, ok := ix.find(id); ok {
		return int(ix.slots[i].pos) - 1, true
	}
	return 0, false
}

func (ix *HashIndex) find(id chain.TxID) (int, bool) {
	mask := len(ix.slots) - 1
	for i := homeOf(id, mask); ix.slots[i].pos != 0; i = (i + 1) & mask {
		if ix.slots[i].id == id {
			return i, true
		}
	}
	return 0, false
}

// Delete removes id, returning whether it was present. The rest of the probe
// run shifts back into the hole (no tombstones), each entry moving only
// while that keeps it at or after its home slot.
func (ix *HashIndex) Delete(id chain.TxID) bool {
	hole, ok := ix.find(id)
	if !ok {
		return false
	}
	mask := len(ix.slots) - 1
	for j := (hole + 1) & mask; ix.slots[j].pos != 0; j = (j + 1) & mask {
		if (j-homeOf(ix.slots[j].id, mask))&mask >= (j-hole)&mask {
			ix.slots[hole] = ix.slots[j]
			hole = j
		}
	}
	ix.slots[hole] = indexEntry{}
	ix.n--
	return true
}

// minLoad is the load factor below which Shrink halves the table.
const minLoad = 0.2

// Shrink halves the slot array while the load factor sits below minLoad,
// releasing the storage the paper's limitation section worries about
// ("the volume of the hash table will continue to expand"). It returns how
// many halvings were applied.
func (ix *HashIndex) Shrink() int {
	steps := 0
	for len(ix.slots) > 16 && float64(ix.n) < minLoad*float64(len(ix.slots)) {
		ix.rehash(len(ix.slots) / 2)
		steps++
	}
	return steps
}

func (ix *HashIndex) rehash(size int) {
	old := ix.slots
	ix.slots = make([]indexEntry, size)
	for _, e := range old {
		if e.pos != 0 {
			ix.insert(e)
		}
	}
}

// Len reports the number of entries.
func (ix *HashIndex) Len() int { return ix.n }

// Buckets reports the current table width in slots.
func (ix *HashIndex) Buckets() int { return len(ix.slots) }

// Stats reports collision and resize counts, for the ablation benchmarks.
// A collision is a Put whose home slot was already taken.
func (ix *HashIndex) Stats() (collisions, resizes int) {
	return ix.collisions, ix.resizes
}
