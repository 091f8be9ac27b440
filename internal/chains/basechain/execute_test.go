package basechain

import (
	"bytes"
	"strconv"
	"testing"

	"hammer/internal/chain"
	"hammer/internal/eventsim"
	"hammer/internal/smallbank"
)

// ExecuteOrdered runs a block on one executor and one receipt slab. These
// tests pin what that reuse must not change.

// snooper wraps SmallBank and, before each invocation, records the account
// value the previous transaction of the block applied — the buffer the
// state now holds — together with a copy of its bytes.
type snooper struct {
	smallbank.Contract
	seen []snapshot
}

type snapshot struct{ live, copied []byte }

func (s *snooper) Invoke(ctx chain.TxContext, op string, args []string) error {
	if v, ok := ctx.Get("c:" + args[0]); ok {
		s.seen = append(s.seen, snapshot{live: v, copied: bytes.Clone(v)})
	}
	return s.Contract.Invoke(ctx, op, args)
}

func deposits(n int, account string) []*chain.Transaction {
	txs := make([]*chain.Transaction, n)
	for i := range txs {
		txs[i] = &chain.Transaction{Contract: smallbank.ContractName, Op: smallbank.OpDeposit,
			Args: []string{account, "1"}, Nonce: uint64(i)}
		txs[i].ComputeID()
	}
	return txs
}

func TestExecuteOrderedDoesNotMutateAppliedValues(t *testing.T) {
	b := &Base{}
	b.Init("test", eventsim.New(), 1)
	snoop := &snooper{}
	if err := b.Deploy(snoop); err != nil {
		t.Fatal(err)
	}
	state := chain.NewState()
	state.Set("c:a", []byte("0"), 0)
	for i, r := range b.ExecuteOrdered(state, deposits(50, "a"), 1) {
		if r.Status != chain.StatusCommitted {
			t.Fatalf("receipt %d: %+v", i, r)
		}
	}
	if len(snoop.seen) != 50 {
		t.Fatalf("snooped %d values, want 50", len(snoop.seen))
	}
	for i, s := range snoop.seen {
		if !bytes.Equal(s.live, s.copied) || string(s.copied) != strconv.Itoa(i) {
			t.Fatalf("value applied by transaction %d is now %q, was %q", i-1, s.live, s.copied)
		}
	}
	if v, _, _ := state.Get("c:a"); string(v) != "50" {
		t.Fatalf("final balance %q, want 50", v)
	}
}

// Each receipt is its own slot of the slab: distinct pointers, each carrying
// its own transaction's ID and outcome.
func TestExecuteOrderedReceiptsAreDistinct(t *testing.T) {
	b := dedupBase(t)
	state := chain.NewState()
	state.Set("c:a", []byte("0"), 0)
	txs := append(deposits(3, "a"), deposits(1, "ghost")...)
	receipts := b.ExecuteOrdered(state, txs, 1)
	for i, r := range receipts {
		if r.TxID != txs[i].ID {
			t.Fatalf("receipt %d carries %s, want %s", i, r.TxID.Short(), txs[i].ID.Short())
		}
		for j := range receipts[:i] {
			if receipts[j] == r {
				t.Fatalf("receipts %d and %d share a slot", j, i)
			}
		}
	}
	if receipts[3].Status != chain.StatusAborted || receipts[2].Status != chain.StatusCommitted {
		t.Fatalf("statuses %v %v", receipts[2].Status, receipts[3].Status)
	}
}

// A block of N deposits allocates a constant for the block plus, per
// deposit, the checking-account key the contract builds and the new balance
// buffer it writes. A per-transaction executor or receipt breaks the bound.
func TestExecuteOrderedAllocsPerWrite(t *testing.T) {
	const n = 1000
	b := dedupBase(t)
	state := chain.NewState()
	state.Set("c:a", []byte("0"), 0)
	txs := deposits(n, "a")
	allocs := testing.AllocsPerRun(5, func() { b.ExecuteOrdered(state, txs, 1) })
	if limit := float64(64 + 2*n); allocs > limit {
		t.Fatalf("a %d-deposit block allocates %.0f times, want at most %.0f", n, allocs, limit)
	}
}
