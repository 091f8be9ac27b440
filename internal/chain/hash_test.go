package chain

import (
	"bytes"
	"crypto/sha256"
	"strings"
	"testing"
)

// smallbankTx is a typical measured SmallBank transaction, as the workload
// generator builds it.
func smallbankTx() *Transaction {
	return &Transaction{
		ClientID: "client-3",
		ServerID: "server-0",
		Contract: "smallbank",
		Op:       "transfer",
		Args:     []string{"acct1234", "acct4321", "57"},
		From:     "acct1234",
		Nonce:    123456,
	}
}

func TestComputeIDHashesEncode(t *testing.T) {
	big := sampleTx()
	big.Args = append(big.Args, strings.Repeat("x", 2*idBufSize))
	cases := map[string]*Transaction{
		"no args":   {Contract: "smallbank", Op: "query"},
		"smallbank": smallbankTx(),
		"spills":    big,
	}
	for name, tx := range cases {
		enc := tx.Encode()
		if len(enc) != cap(enc) {
			t.Errorf("%s: Encode len %d, cap %d: pre-size is off", name, len(enc), cap(enc))
		}
		if got, want := tx.ComputeID(), TxID(sha256.Sum256(enc)); got != want {
			t.Errorf("%s: ComputeID %s, want sha256(Encode) %s", name, got, want)
		}
		prefix := []byte("prefix")
		if got := tx.AppendEncode(prefix); !bytes.Equal(got[len(prefix):], enc) || string(got[:len(prefix)]) != "prefix" {
			t.Errorf("%s: AppendEncode does not append Encode", name)
		}
	}
	if n := len(smallbankTx().Encode()); n > idBufSize {
		t.Fatalf("a SmallBank payload is %d bytes, larger than the %d-byte ID buffer", n, idBufSize)
	}
}

// The encodings and hashes are pinned to the values the original
// implementation produced: every committed digest and golden CSV depends on
// them.
func TestHashesArePinned(t *testing.T) {
	big := sampleTx()
	big.Args = append(big.Args, strings.Repeat("x", 1000))
	var leaves [][]byte
	for i := 0; i < 7; i++ {
		leaves = append(leaves, []byte{byte(i)})
	}
	blk := &Block{Height: 3, Shard: 1, Timestamp: 5, Proposer: "p"}
	for i := 0; i < 5; i++ {
		tx := sampleTx()
		tx.Nonce = uint64(i)
		tx.ComputeID()
		blk.Txs = append(blk.Txs, tx)
	}
	blk.Seal()
	for _, c := range []struct{ name, got, want string }{
		{"sample id", sampleTx().ComputeID().String(), "c90d767d1c1e0ef9dd34f97ae93d80980e04f35045b7e4b6b918d3fb38ee2257"},
		{"spilled id", big.ComputeID().String(), "d8356c437c8ea823cf204aabe9efec5ab045acff1f3d879351caf9b2c81eece2"},
		{"merkle root", MerkleRoot(leaves).String(), "e263b77a6d80c1c56f3f67d1e0d803ad8eb2ac9d66c82f78735207c886a1592c"},
		{"tx root", blk.TxRoot.String(), "8add71a4c4ce1d8497411e00988bc5fd700f66aa2df73f350be8f35cd4db9edc"},
		{"block hash", blk.BlockHash.String(), "02d8b8943290f9ed4891fb2e9fe5d5c68c62a371b6c5f0ee30f022ac936fe843"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
}

func TestComputeIDAllocFree(t *testing.T) {
	tx := smallbankTx()
	if allocs := testing.AllocsPerRun(1000, func() { tx.ComputeID() }); allocs != 0 {
		t.Fatalf("ComputeID allocates %.1f times per SmallBank transaction, want 0", allocs)
	}
}

func TestSealAllocsIndependentOfBlockSize(t *testing.T) {
	sealAllocs := func(n int) float64 {
		blk := &Block{Proposer: "block-server-0"}
		for i := 0; i < n; i++ {
			tx := smallbankTx()
			tx.Nonce = uint64(i)
			tx.ComputeID()
			blk.Txs = append(blk.Txs, tx)
		}
		return testing.AllocsPerRun(100, blk.Seal)
	}
	small, large := sealAllocs(1), sealAllocs(1000)
	if large > small {
		t.Fatalf("Seal allocates %.1f times for 1000 txs but %.1f for 1: per-tx allocations are back", large, small)
	}
}
