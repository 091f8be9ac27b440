package hammer_test

import (
	"errors"
	"testing"

	"hammer/internal/chain"
	"hammer/internal/chains/committee"
	"hammer/internal/chains/ethereum"
	"hammer/internal/chains/fabric"
	"hammer/internal/chains/meepo"
	"hammer/internal/chains/neuchain"
	"hammer/internal/chaos"
	"hammer/internal/eventsim"
	"hammer/internal/smallbank"
)

// A loaded run refuses a large share of its submissions, so a refusal must
// cost nothing: every chain returns a preallocated error that still matches
// the chain sentinel that the core engine and its retry path test for.
func TestAdmissionRefusalsAllocateNothing(t *testing.T) {
	cases := []struct {
		name string
		// build returns a chain whose cap admits exactly one transaction.
		build func(eventsim.Sched) chain.Blockchain
		// unavailable reports whether crashing every node makes Submit
		// refuse with ErrUnavailable.
		unavailable bool
	}{
		{"neuchain", func(s eventsim.Sched) chain.Blockchain {
			cfg := neuchain.DefaultConfig()
			cfg.PendingCap = 1
			return neuchain.New(s, cfg)
		}, true},
		{"ethereum", func(s eventsim.Sched) chain.Blockchain {
			cfg := ethereum.DefaultConfig()
			cfg.MempoolCap = 1
			return ethereum.New(s, cfg)
		}, true},
		{"fabric", func(s eventsim.Sched) chain.Blockchain {
			cfg := fabric.DefaultConfig()
			cfg.PendingCap = 1
			return fabric.New(s, cfg)
		}, true},
		{"meepo", func(s eventsim.Sched) chain.Blockchain {
			cfg := meepo.DefaultConfig()
			cfg.PendingCapPerShard = 1
			return meepo.New(s, cfg)
		}, false},
		{"committee", func(s eventsim.Sched) chain.Blockchain {
			cfg := committee.DefaultConfig()
			cfg.PendingCap = 1
			return committee.New(s, cfg)
		}, false},
	}
	newTx := func(nonce uint64) *chain.Transaction {
		tx := &chain.Transaction{Contract: smallbank.ContractName, Op: smallbank.OpDeposit,
			Args: []string{"acct1", "5"}, From: "acct1", Nonce: nonce}
		tx.ComputeID()
		return tx
	}
	refuse := func(t *testing.T, bc chain.Blockchain, sentinel error) {
		t.Helper()
		tx := newTx(99)
		if _, err := bc.Submit(tx); !errors.Is(err, sentinel) {
			t.Fatalf("refused submit: %v, want errors.Is %v", err, sentinel)
		}
		if allocs := testing.AllocsPerRun(100, func() { bc.Submit(tx) }); allocs != 0 {
			t.Fatalf("a refused submit allocates %.1f times, want 0", allocs)
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bc := c.build(eventsim.New())
			if err := bc.Deploy(smallbank.Contract{}); err != nil {
				t.Fatal(err)
			}
			bc.Start()
			if _, err := bc.Submit(newTx(1)); err != nil {
				t.Fatalf("first submit: %v", err)
			}
			refuse(t, bc, chain.ErrOverloaded)
			if !c.unavailable {
				return
			}
			fresh := c.build(eventsim.New())
			if err := fresh.Deploy(smallbank.Contract{}); err != nil {
				t.Fatal(err)
			}
			fresh.Start()
			nf := fresh.(chaos.NodeFaulter)
			for _, node := range nf.Nodes() {
				nf.CrashNode(node)
			}
			refuse(t, fresh, chain.ErrUnavailable)
		})
	}
}
