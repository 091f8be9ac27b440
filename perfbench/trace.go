package main

import (
	"fmt"
	"time"

	"hammer/internal/chain"
	"hammer/internal/chaos"
	"hammer/internal/core"
	"hammer/internal/eventsim"
	"hammer/internal/netsim"
)

// layer is one row of the traced ledger. Every span the wrappers open is
// charged to exactly one layer; a span's self time is its duration minus
// the spans opened inside it, so self times never count a nanosecond twice.
type layer int

const (
	layerEventsim     layer = iota // Sched.RunUntil/Run/Step minus callbacks
	layerCore                      // callbacks core scheduled
	layerChainSubmit               // chain.Blockchain.Submit
	layerChainBlockAt              // chain.Blockchain.BlockAt
	layerChains                    // callbacks the chain scheduled
	layerContract                  // chain.Contract.Invoke
	layerStateGet                  // chain.StateBackend.Get
	layerStateSet                  // chain.StateBackend.Set
	layerStateOther                // chain.StateBackend.Delete/Len/Keys
	layerNext                      // core.TxSource.Next
	layerSetupTxs                  // core.TxSource.SetupTxs
	layerReport                    // chain Stop to the end of the run's digest
	layerDigest                    // the benchmark's own outcome hash
	numLayers
)

// Phases of one run: everything before Config.OnMeasureStart is set-up.
const (
	phaseSetup = iota
	phaseMeasure
	numPhases
)

type frame struct {
	l     layer
	start time.Time
	child time.Duration
}

// tracer records the spans of one simulation. A simulation runs on a single
// goroutine, so the tracer needs no locking; concurrent runs of a sweep each
// own a tracer.
type tracer struct {
	stack []frame
	phase int
	self  [numPhases][numLayers]time.Duration
	calls [numPhases][numLayers]int64
	// overruns counts spans whose children took longer than the span
	// itself; the ledger check requires it to stay zero.
	overruns int

	// steps are the wall times of measured-phase RunUntil calls, one per
	// virtual-second step of the engine's loop.
	steps []time.Duration

	admitted, blocks, blockTxs int64
	aborts, gets, puts         int64

	// chainSched is false when the chain was built on an unwrapped
	// scheduler, so chain callbacks are inside the eventsim self time.
	chainSched bool

	ctx countingCtx
}

func newTracer() *tracer {
	t := &tracer{}
	t.ctx.t = t
	return t
}

func (t *tracer) begin(l layer) {
	t.stack = append(t.stack, frame{l: l, start: time.Now()})
}

func (t *tracer) end() time.Duration {
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := time.Since(f.start)
	if f.child > d {
		t.overruns++
	}
	t.self[t.phase][f.l] += d - f.child
	t.calls[t.phase][f.l]++
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
	return d
}

// measure switches the tracer to the measured phase. The engine calls
// OnMeasureStart outside every callback, so no span is open.
func (t *tracer) measure() {
	if len(t.stack) != 0 {
		panic(fmt.Sprintf("perfbench: %d spans open at measurement start", len(t.stack)))
	}
	t.phase = phaseMeasure
}

// tracedSched times the scheduler loop and charges every callback
// scheduled through it to one owner layer. The traced run hands one of
// these to the chain constructor and another to core.New.
type tracedSched struct {
	eventsim.Sched
	t     *tracer
	owner layer
}

func (s *tracedSched) wrap(fn func()) func() {
	return func() {
		s.t.begin(s.owner)
		fn()
		s.t.end()
	}
}

func (s *tracedSched) At(t time.Duration, fn func()) eventsim.Timer {
	return s.Sched.At(t, s.wrap(fn))
}

func (s *tracedSched) AtKey(key uint64, t time.Duration, fn func()) eventsim.Timer {
	return s.Sched.AtKey(key, t, s.wrap(fn))
}

func (s *tracedSched) After(d time.Duration, fn func()) eventsim.Timer {
	return s.Sched.After(d, s.wrap(fn))
}

func (s *tracedSched) AfterKey(key uint64, d time.Duration, fn func()) eventsim.Timer {
	return s.Sched.AfterKey(key, d, s.wrap(fn))
}

func (s *tracedSched) AtSeq(t time.Duration, seq uint64, fn func()) eventsim.Timer {
	return s.Sched.AtSeq(t, seq, s.wrap(fn))
}

func (s *tracedSched) AtKeySeq(key uint64, t time.Duration, seq uint64, fn func()) eventsim.Timer {
	return s.Sched.AtKeySeq(key, t, seq, s.wrap(fn))
}

func (s *tracedSched) Every(interval time.Duration, fn func()) *eventsim.Ticker {
	return s.Sched.Every(interval, s.wrap(fn))
}

func (s *tracedSched) EveryKey(key uint64, interval time.Duration, fn func()) *eventsim.Ticker {
	return s.Sched.EveryKey(key, interval, s.wrap(fn))
}

func (s *tracedSched) Step() bool {
	s.t.begin(layerEventsim)
	ok := s.Sched.Step()
	s.t.end()
	return ok
}

func (s *tracedSched) Run() {
	s.t.begin(layerEventsim)
	s.Sched.Run()
	s.t.end()
}

func (s *tracedSched) RunUntil(deadline time.Duration) {
	s.t.begin(layerEventsim)
	s.Sched.RunUntil(deadline)
	if d := s.t.end(); s.t.phase == phaseMeasure {
		s.t.steps = append(s.t.steps, d)
	}
}

// Optional chain surfaces that the experiments' digests and the chaos
// injector find by type assertion. A wrapper must expose exactly the ones
// its inner chain has, or a wrapped run could take another code path.
type (
	strander        interface{ Stranded() int }
	viewChanger     interface{ ViewChanges() int }
	networkProvider interface{ Network() *netsim.Network }
	fullChain       interface {
		chain.Blockchain
		chain.AuditLogger
		chaos.NodeFaulter
		networkProvider
		strander
	}
)

// tracedChain times Submit and BlockAt and forwards everything else.
type tracedChain struct {
	fullChain
	t *tracer
}

// tracedViewChain adds the committee's view-change counter.
type tracedViewChain struct {
	*tracedChain
	v viewChanger
}

func (c *tracedViewChain) ViewChanges() int { return c.v.ViewChanges() }

func (c *tracedChain) Submit(tx *chain.Transaction) (chain.TxID, error) {
	c.t.begin(layerChainSubmit)
	id, err := c.fullChain.Submit(tx)
	c.t.end()
	if err == nil && c.t.phase == phaseMeasure {
		c.t.admitted++
	}
	return id, err
}

func (c *tracedChain) BlockAt(shard int, height uint64) (*chain.Block, bool) {
	c.t.begin(layerChainBlockAt)
	blk, ok := c.fullChain.BlockAt(shard, height)
	c.t.end()
	if ok && c.t.phase == phaseMeasure {
		c.t.blocks++
		c.t.blockTxs += int64(len(blk.Txs))
	}
	return blk, ok
}

// Stop opens the report span: after the engine stops the chain it only
// digests records, and the run's Digest wrapper closes the span.
func (c *tracedChain) Stop() {
	c.fullChain.Stop()
	c.t.begin(layerReport)
}

// wrapChain wraps bc for the tracer. Every simulated chain embeds the same
// base (audit log, liveness hooks, network, stranded count) and only the
// committee adds view changes; a chain of any other shape is refused rather
// than wrapped with a different set of optional methods.
func (t *tracer) wrapChain(bc chain.Blockchain) (chain.Blockchain, error) {
	full, ok := bc.(fullChain)
	if !ok {
		return nil, fmt.Errorf("perfbench: chain %T lacks the audit, liveness, network or stranded surface", bc)
	}
	w := &tracedChain{fullChain: full, t: t}
	if v, ok := bc.(viewChanger); ok {
		return &tracedViewChain{tracedChain: w, v: v}, nil
	}
	return w, nil
}

// tracedContract times Invoke and counts the state accesses it makes.
type tracedContract struct {
	chain.Contract
	t *tracer
}

func (c *tracedContract) Invoke(ctx chain.TxContext, op string, args []string) error {
	t := c.t
	t.begin(layerContract)
	// Invocations never nest and never outlive the call, so one reusable
	// counting context serves them all.
	t.ctx.inner = ctx
	err := c.Contract.Invoke(&t.ctx, op, args)
	t.ctx.inner = nil
	t.end()
	if err != nil && t.phase == phaseMeasure {
		t.aborts++
	}
	return err
}

type countingCtx struct {
	inner chain.TxContext
	t     *tracer
}

func (c *countingCtx) Get(key string) ([]byte, bool) {
	if c.t.phase == phaseMeasure {
		c.t.gets++
	}
	return c.inner.Get(key)
}

func (c *countingCtx) Put(key string, val []byte) {
	if c.t.phase == phaseMeasure {
		c.t.puts++
	}
	c.inner.Put(key, val)
}

func (c *countingCtx) Del(key string) { c.inner.Del(key) }

// tracedSource times workload generation.
type tracedSource struct {
	core.TxSource
	t *tracer
}

func (s *tracedSource) SetupTxs() []*chain.Transaction {
	s.t.begin(layerSetupTxs)
	txs := s.TxSource.SetupTxs()
	s.t.end()
	return txs
}

func (s *tracedSource) Next(clientID, serverID string) *chain.Transaction {
	s.t.begin(layerNext)
	tx := s.TxSource.Next(clientID, serverID)
	s.t.end()
	return tx
}

// tracedBackend times the disk store behind chain.State.
type tracedBackend struct {
	inner chain.StateBackend
	t     *tracer
}

func (b *tracedBackend) Get(key string) ([]byte, uint64, bool) {
	b.t.begin(layerStateGet)
	v, ver, ok := b.inner.Get(key)
	b.t.end()
	return v, ver, ok
}

func (b *tracedBackend) Set(key string, val []byte, version uint64) {
	b.t.begin(layerStateSet)
	b.inner.Set(key, val, version)
	b.t.end()
}

func (b *tracedBackend) Delete(key string) {
	b.t.begin(layerStateOther)
	b.inner.Delete(key)
	b.t.end()
}

func (b *tracedBackend) Len() int {
	b.t.begin(layerStateOther)
	n := b.inner.Len()
	b.t.end()
	return n
}

func (b *tracedBackend) Keys() []string {
	b.t.begin(layerStateOther)
	keys := b.inner.Keys()
	b.t.end()
	return keys
}

// The wrap helpers return their argument unchanged on a nil tracer, so the
// untraced run builds exactly the objects the program would.

func (t *tracer) wrapSched(s eventsim.Sched, owner layer) eventsim.Sched {
	if t == nil {
		return s
	}
	return &tracedSched{Sched: s, t: t, owner: owner}
}

// wrapChainSched wraps the scheduler handed to the chain constructor, so
// chain callbacks get their own ledger row.
func (t *tracer) wrapChainSched(s eventsim.Sched) eventsim.Sched {
	if t == nil {
		return s
	}
	t.chainSched = true
	return t.wrapSched(s, layerChains)
}

func (t *tracer) wrapBackend(b chain.StateBackend) chain.StateBackend {
	if t == nil {
		return b
	}
	return &tracedBackend{inner: b, t: t}
}
