package taskproc

import (
	"encoding/binary"
	"testing"

	"hammer/internal/chain"
	"hammer/internal/randx"
)

// endHeavyID draws an ID whose hash prefix is all ones but for its low two
// bits, so at every table width its home is one of the last four slots: runs
// of such IDs wrap past the end of the table.
func endHeavyID(rng *randx.Rand) chain.TxID {
	id := randomID(rng)
	binary.BigEndian.PutUint64(id[:8], ^uint64(0)-uint64(rng.Intn(4)))
	return id
}

// wrapped reports whether some entry sits at a lower index than its home,
// i.e. its probe run crosses the end of the table.
func wrapped(ix *HashIndex) bool {
	mask := len(ix.slots) - 1
	for i, e := range ix.slots {
		if e.pos != 0 && homeOf(e.id, mask) > i {
			return true
		}
	}
	return false
}

// TestHashIndexMatchesMapModel drives the index and a Go map through the
// same random Put/Get/Delete/Shrink sequence, with a third of the IDs homed
// at the end of the table so deletes land inside wrapping probe runs. The
// sequence alternates growing and draining phases so Shrink has work.
func TestHashIndexMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := randx.New(seed)
		ix := NewHashIndex(0)
		model := make(map[chain.TxID]int)
		var live []chain.TxID
		wrappedDeletes, shrinks := 0, 0
		for step := 0; step < 4000; step++ {
			putShare := 60 // growing phase
			if step/500%2 == 1 {
				putShare = 10 // draining phase
			}
			switch op := rng.Intn(100); {
			case op < putShare || len(live) == 0:
				id := randomID(rng)
				if rng.Intn(3) == 0 {
					id = endHeavyID(rng)
				}
				if _, dup := model[id]; dup {
					continue
				}
				ix.Put(id, step)
				model[id] = step
				live = append(live, id)
			case op < 80:
				k := rng.Intn(len(live))
				id := live[k]
				if wrapped(ix) {
					wrappedDeletes++
				}
				if !ix.Delete(id) {
					t.Fatalf("seed %d step %d: Delete missed a live ID", seed, step)
				}
				delete(model, id)
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			case op < 97:
				id := randomID(rng)
				if len(live) > 0 && rng.Intn(2) == 0 {
					id = live[rng.Intn(len(live))]
				}
				want, wantOK := model[id]
				if got, ok := ix.Get(id); ok != wantOK || got != want {
					t.Fatalf("seed %d step %d: Get = %d,%v, model %d,%v", seed, step, got, ok, want, wantOK)
				}
				if !wantOK && ix.Delete(id) {
					t.Fatalf("seed %d step %d: Delete of an absent ID reported true", seed, step)
				}
			default:
				shrinks += ix.Shrink()
			}
			if ix.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len %d, model %d", seed, step, ix.Len(), len(model))
			}
		}
		for id, want := range model {
			if got, ok := ix.Get(id); !ok || got != want {
				t.Fatalf("seed %d: final Get = %d,%v, want %d", seed, got, ok, want)
			}
		}
		if float64(ix.Len()) > maxLoad*float64(ix.Buckets()) {
			t.Fatalf("seed %d: load factor exceeded: %d entries in %d slots", seed, ix.Len(), ix.Buckets())
		}
		if wrappedDeletes == 0 || shrinks == 0 {
			t.Fatalf("seed %d: sequence never deleted from a wrapped table (%d) or shrank (%d)", seed, wrappedDeletes, shrinks)
		}
	}
}

// TestHashIndexDeleteInsideWrappedRun pins the backward shift across the
// table end: entries homed at the last slot fill it and wrap to the front,
// and deleting any one of them leaves the rest reachable.
func TestHashIndexDeleteInsideWrappedRun(t *testing.T) {
	rng := randx.New(3)
	for victim := 0; victim < 5; victim++ {
		ix := NewHashIndex(0)
		ids := make([]chain.TxID, 5)
		for i := range ids {
			ids[i] = randomID(rng)
			binary.BigEndian.PutUint64(ids[i][:8], ^uint64(0))
			ix.Put(ids[i], i)
		}
		if !wrapped(ix) {
			t.Fatal("probe run did not wrap")
		}
		ix.Delete(ids[victim])
		for i, id := range ids {
			got, ok := ix.Get(id)
			if i == victim {
				if ok {
					t.Fatalf("victim %d: deleted ID still found", victim)
				}
				continue
			}
			if !ok || got != i {
				t.Fatalf("victim %d: Get(ids[%d]) = %d,%v", victim, i, got, ok)
			}
		}
	}
}

func TestHashIndexPutDoesNotAllocate(t *testing.T) {
	const n = 2000
	rng := randx.New(5)
	ids := make([]chain.TxID, n)
	for i := range ids {
		ids[i] = randomID(rng)
	}
	ix := NewHashIndex(n)
	k := 0
	if allocs := testing.AllocsPerRun(n/2, func() {
		ix.Put(ids[k], k)
		k++
	}); allocs != 0 {
		t.Fatalf("Put into a pre-sized index made %.2f allocations, want 0", allocs)
	}
}
