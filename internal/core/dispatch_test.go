package core

import (
	"encoding/binary"
	"testing"
	"time"

	"hammer/internal/chain"
	"hammer/internal/eventsim"
	"hammer/internal/workload"
)

// admitAll is a chain that admits every submission. Only the methods the
// dispatch path calls are implemented; anything else panics on the nil
// embedded interface.
type admitAll struct{ chain.Blockchain }

func (admitAll) Name() string                                     { return "admit-all" }
func (admitAll) Shards() int                                      { return 1 }
func (admitAll) Submit(tx *chain.Transaction) (chain.TxID, error) { return tx.ID, nil }

// TestDispatchSteadyStateDoesNotAllocate pins the client hot path: once the
// client FIFOs, the scheduler's event pool and the tracker are warm,
// dispatching a transaction and firing its send completion allocates
// nothing.
func TestDispatchSteadyStateDoesNotAllocate(t *testing.T) {
	const warm, measured = 2000, 1000
	sched := eventsim.New()
	cfg := DefaultConfig()
	cfg.Control = workload.Constant(1000, 4*time.Second, time.Second)
	cfg.SignMode = SignOff
	e, err := New(sched, admitAll{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	txs := make([]*chain.Transaction, warm+measured+1)
	for i := range txs {
		txs[i] = &chain.Transaction{}
		binary.BigEndian.PutUint64(txs[i].ID[:8], uint64(i)*0x9e3779b97f4a7c15)
	}
	k := 0
	step := func() {
		e.dispatch(txs[k], k%len(e.clients))
		k++
		sched.RunUntil(sched.Now() + time.Millisecond)
	}
	for k < warm {
		step()
	}
	if allocs := testing.AllocsPerRun(measured, step); allocs != 0 {
		t.Fatalf("dispatch made %.2f allocations per transaction, want 0", allocs)
	}
	sched.RunUntil(sched.Now() + time.Second)
	if got := e.matcher.Pending(); got != k {
		t.Fatalf("%d transactions tracked after %d dispatches", got, k)
	}
}

// TestSubmitPanicsWhenCompletionsLeaveDispatchOrder checks the run-time
// guard on the client FIFO: a send completing at any time other than the
// head's due time means completions no longer follow dispatch order.
func TestSubmitPanicsWhenCompletionsLeaveDispatchOrder(t *testing.T) {
	sched := eventsim.New()
	cfg := DefaultConfig()
	cfg.Control = workload.Constant(10, time.Second, time.Second)
	cfg.SignMode = SignOff
	e, err := New(sched, admitAll{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.dispatch(&chain.Transaction{}, 0)
	e.clients[0].fifo[0].due++
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order completion did not panic")
		}
	}()
	sched.RunUntil(time.Second)
}
