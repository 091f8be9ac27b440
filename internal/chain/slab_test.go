package chain

import "testing"

func TestTxSlabAppendLeavesNeighbourUntouched(t *testing.T) {
	var s TxSlab
	a := s.Args("a0", "a1")
	b := s.Args("b0", "b1", "b2")
	if cap(a) != len(a) {
		t.Fatalf("Args capacity %d, want its length %d", cap(a), len(a))
	}
	a = append(a, "grown")
	if b[0] != "b0" || b[1] != "b1" || b[2] != "b2" {
		t.Fatalf("appending to one Args slice overwrote the next: %q", b)
	}
	if a[0] != "a0" || a[1] != "a1" || a[2] != "grown" {
		t.Fatalf("appended slice = %q", a)
	}
}

func TestTxSlabHandsOutDistinctCopies(t *testing.T) {
	var s TxSlab
	txs := make([]*Transaction, 3*slabChunk)
	for i := range txs {
		txs[i] = s.New(Transaction{Op: "set", Nonce: uint64(i), Args: s.Args("k", "v")})
	}
	seen := make(map[*Transaction]bool)
	for i, tx := range txs {
		if seen[tx] {
			t.Fatalf("transaction %d handed out twice", i)
		}
		seen[tx] = true
		if tx.Op != "set" || tx.Nonce != uint64(i) || len(tx.Args) != 2 {
			t.Fatalf("transaction %d = %+v", i, tx)
		}
	}
}

func TestTxSlabAmortisesAllocations(t *testing.T) {
	var s TxSlab
	allocs := testing.AllocsPerRun(slabChunk, func() {
		s.New(Transaction{Args: s.Args("k", "v", "w")})
	})
	if allocs > 0.05 {
		t.Fatalf("%.3f allocations per transaction, want a few per %d-transaction chunk", allocs, slabChunk)
	}
}
