// Package committee simulates a DPoS/BFT committee chain with
// Tendermint-style rounds: a rotating proposer broadcasts a block to the
// elected committee, validators exchange prevotes and precommits, and a
// block commits once strictly more than two thirds of the committee
// precommits it. A round that stalls — crashed leader, partitioned quorum —
// times out on the virtual clock and triggers a view change that rotates the
// proposer. The two voting phases put a network round trip and a quorum
// wait on every block, which is the family's latency signature; throughput
// degrades gently as the committee grows because the proposer's vote
// aggregation is O(committee).
package committee

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"time"

	"hammer/internal/chain"
	"hammer/internal/chains/basechain"
	"hammer/internal/eventsim"
	"hammer/internal/netsim"
)

// Config parameterises the simulated committee deployment.
type Config struct {
	// Validators is the committee size (default 4, tolerating 1 fault).
	Validators int
	// CoresPerNode models the testbed's 2-vCPU instances.
	CoresPerNode int
	// BlockInterval is the proposal pacing: a new round starts on the first
	// tick with pending transactions.
	BlockInterval time.Duration
	// RoundTimeout is how long a round may stall before a view change
	// rotates the proposer.
	RoundTimeout time.Duration
	// ProposalOverhead is the fixed per-block agreement cost on top of vote
	// round trips.
	ProposalOverhead time.Duration
	// ExecCostPerTx is the CPU time to execute one transaction.
	ExecCostPerTx time.Duration
	// PendingCap bounds admitted-but-uncommitted transactions.
	PendingCap int
	// TxBytes approximates the wire size of a transaction.
	TxBytes int
	// Net configures the committee's gossip network.
	Net netsim.Config
	// State constructs the replicated world state; nil means the in-RAM
	// map. Runs at large account populations mount the paged store here.
	State chain.StateFactory `json:"-"`
}

// DefaultConfig is a 4-validator committee with ~250 ms rounds.
func DefaultConfig() Config {
	return Config{
		Validators:       4,
		CoresPerNode:     2,
		BlockInterval:    250 * time.Millisecond,
		RoundTimeout:     time.Second,
		ProposalOverhead: 5 * time.Millisecond,
		ExecCostPerTx:    250 * time.Microsecond,
		PendingCap:       10_000,
		TxBytes:          700,
		Net:              netsim.DefaultConfig(),
	}
}

// Round phases. The state machine is: idle -> proposing (waiting for a
// prevote quorum) -> prevoted (waiting for a precommit quorum) ->
// executing -> idle. A timeout in proposing/prevoted is a view change; a
// timeout in executing is ignored because the decision is already final.
type phase uint8

const (
	phaseIdle phase = iota
	phaseProposing
	phasePrevoted
	phaseExecuting
)

// Chain is the simulated committee deployment.
type Chain struct {
	basechain.Base
	cfg        Config
	net        *netsim.Network
	state      *chain.State
	validators []string

	// exec models the representative replica; after a precommit quorum all
	// replicas execute the same block, so one lane bounds commit time.
	exec *basechain.Compute

	queue []*chain.Transaction
	// inflight counts transactions cut into a proposal but not yet
	// committed or stranded; admission counts them against PendingCap.
	inflight int
	stranded int
	ticker   *eventsim.Ticker
	version  uint64

	// round state machine
	height uint64 // next block height
	round  uint32
	phase  phase
	// gen invalidates stale deliveries and timers: every startRound bumps
	// it, and every callback armed by that round carries the value to
	// compare.
	gen          uint64
	pendingBatch []*chain.Transaction
	proposalHash chain.Hash
	prevotes     *Tally
	precommits   *Tally
	viewChanges  int
}

var (
	_ chain.Blockchain  = (*Chain)(nil)
	_ chain.AuditLogger = (*Chain)(nil)
)

// New builds the simulated deployment on the shared scheduler.
func New(sched eventsim.Sched, cfg Config) *Chain {
	def := DefaultConfig()
	if cfg.Validators <= 0 {
		cfg.Validators = def.Validators
	}
	if cfg.Validators > MaxCommittee {
		cfg.Validators = MaxCommittee
	}
	if cfg.CoresPerNode <= 0 {
		cfg.CoresPerNode = def.CoresPerNode
	}
	if cfg.BlockInterval <= 0 {
		cfg.BlockInterval = def.BlockInterval
	}
	if cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = def.RoundTimeout
	}
	if cfg.ProposalOverhead <= 0 {
		cfg.ProposalOverhead = def.ProposalOverhead
	}
	if cfg.ExecCostPerTx <= 0 {
		cfg.ExecCostPerTx = def.ExecCostPerTx
	}
	if cfg.PendingCap <= 0 {
		cfg.PendingCap = def.PendingCap
	}
	if cfg.TxBytes <= 0 {
		cfg.TxBytes = def.TxBytes
	}
	c := &Chain{
		cfg:    cfg,
		state:  chain.NewStateFrom(cfg.State),
		height: 1,
	}
	c.Init("committee", sched, 1)
	c.net = netsim.New(sched, cfg.Net)
	for i := 0; i < cfg.Validators; i++ {
		c.validators = append(c.validators, Validator(i))
		c.RegisterNodes(Validator(i))
	}
	// Replicas execute a decided block identically; a single lane keyed to
	// the round timeline bounds the commit time.
	c.exec = basechain.NewComputeKey(sched, 1, roundKey)
	return c
}

// Validator names the i-th committee member.
func Validator(i int) string { return fmt.Sprintf("validator-%d", i) }

// roundKey pins the round state machine's timers (pacing ticker, view-change
// timeouts, execution) to one scheduler shard; vote deliveries ride each
// validator's own netsim key. Determinism at any scheduler shard count
// follows: every state transition is an event on this key or a keyed
// delivery, never a wall-clock race.
var roundKey = eventsim.Key("committee/rounds")

// Network exposes the gossip network as a fault-injection target for the
// chaos subsystem.
func (c *Chain) Network() *netsim.Network { return c.net }

// Stranded reports transactions lost with a crashed leader mid-round; the
// driver's retry path recovers them.
func (c *Chain) Stranded() int { return c.stranded }

// ViewChanges reports how many round timeouts rotated the proposer.
func (c *Chain) ViewChanges() int { return c.viewChanges }

// errMempoolFull is the preallocated admission refusal; errors.Is matches
// chain.ErrOverloaded.
var errMempoolFull = fmt.Errorf("committee: mempool full: %w", chain.ErrOverloaded)

// Submit implements chain.Blockchain: the transaction joins the shared
// mempool for the next proposal.
func (c *Chain) Submit(tx *chain.Transaction) (chain.TxID, error) {
	if c.Stopped() {
		return chain.TxID{}, chain.ErrStopped
	}
	if !c.Running() {
		return chain.TxID{}, fmt.Errorf("committee: %w", chain.ErrStopped)
	}
	if len(c.queue)+c.inflight >= c.cfg.PendingCap {
		return chain.TxID{}, errMempoolFull
	}
	if tx.ID == (chain.TxID{}) {
		tx.ComputeID()
	}
	c.queue = append(c.queue, tx)
	return tx.ID, nil
}

// PendingTxs implements chain.Blockchain.
func (c *Chain) PendingTxs() int { return len(c.queue) + c.inflight }

// Start implements chain.Blockchain: the proposal pacing ticker begins.
func (c *Chain) Start() {
	if !c.MarkStarted() {
		return
	}
	c.ticker = c.Sched.EveryKey(roundKey, c.cfg.BlockInterval, func() {
		if c.phase == phaseIdle {
			c.startRound()
		}
	})
}

// Stop implements chain.Blockchain.
func (c *Chain) Stop() {
	c.MarkStopped()
	if c.ticker != nil {
		c.ticker.Stop()
	}
}

// proposerIndex rotates the proposer deterministically by height and round.
func (c *Chain) proposerIndex() int {
	return int((c.height + uint64(c.round)) % uint64(c.cfg.Validators))
}

// startRound opens round (height, round): arm the view-change timeout, cut
// (or re-propose) a batch, broadcast the proposal and collect prevotes. A
// down proposer leaves the round stalled until the timeout rotates past it.
func (c *Chain) startRound() {
	if c.Stopped() || (c.pendingBatch == nil && len(c.queue) == 0) {
		return
	}
	c.gen++
	g := c.gen
	c.phase = phaseProposing
	c.Sched.AfterKey(roundKey, c.cfg.RoundTimeout, func() { c.onTimeout(g) })
	p := c.proposerIndex()
	proposer := Validator(p)
	if c.NodeDown(proposer) {
		return
	}
	if c.pendingBatch == nil {
		// Cap the proposal at what the executor absorbs in roughly two
		// block intervals, so backlog drains smoothly.
		maxBatch := int(2 * float64(c.cfg.BlockInterval) / float64(c.cfg.ExecCostPerTx) * float64(c.cfg.CoresPerNode))
		if maxBatch < 1 {
			maxBatch = 1
		}
		take := len(c.queue)
		if take > maxBatch {
			take = maxBatch
		}
		batch := c.queue[:take]
		rest := make([]*chain.Transaction, len(c.queue)-take)
		copy(rest, c.queue[take:])
		c.queue = rest
		c.inflight += len(batch)
		c.pendingBatch = batch
	}
	batch := c.pendingBatch
	c.proposalHash = proposalHash(c.height, c.round, batch)
	c.prevotes = NewTally(c.height, c.round, Prevote, c.proposalHash, c.cfg.Validators)
	c.precommits = NewTally(c.height, c.round, Precommit, c.proposalHash, c.cfg.Validators)

	// The proposer prevotes its own block, then gossips the proposal; each
	// live validator that receives it answers with a prevote. Partitioned
	// or crashed validators simply never vote — the quorum math is the
	// fault model.
	c.addPrevote(g, c.vote(Prevote, uint32(p)))
	c.net.Broadcast(proposer, c.validators, len(batch)*c.cfg.TxBytes, func(peer string) {
		if c.Stopped() || g != c.gen || c.NodeDown(peer) {
			return
		}
		v := c.vote(Prevote, uint32(validatorIndex(peer)))
		c.net.Send(peer, proposer, VoteSize, func() { c.addPrevote(g, v) })
	})
}

// vote builds this round's vote for the given validator.
func (c *Chain) vote(kind VoteKind, validator uint32) Vote {
	return Vote{Height: c.height, Round: c.round, Kind: kind, Validator: validator, BlockHash: c.proposalHash}
}

// validatorIndex recovers the committee index from a validator name.
func validatorIndex(name string) int {
	var i int
	fmt.Sscanf(name, "validator-%d", &i)
	return i
}

// addPrevote counts a prevote at the proposer; on quorum the proposer
// gossips the prevote certificate and collects precommits.
func (c *Chain) addPrevote(g uint64, v Vote) {
	if c.Stopped() || g != c.gen || c.phase != phaseProposing {
		return
	}
	p := c.proposerIndex()
	proposer := Validator(p)
	if c.NodeDown(proposer) {
		return // the aggregating leader is gone; the timeout will rotate
	}
	if !c.prevotes.Add(v) || !c.prevotes.Reached() {
		return
	}
	c.phase = phasePrevoted
	c.addPrecommit(g, c.vote(Precommit, uint32(p)))
	certBytes := c.prevotes.Count() * VoteSize
	c.net.Broadcast(proposer, c.validators, certBytes, func(peer string) {
		if c.Stopped() || g != c.gen || c.NodeDown(peer) {
			return
		}
		v := c.vote(Precommit, uint32(validatorIndex(peer)))
		c.net.Send(peer, proposer, VoteSize, func() { c.addPrecommit(g, v) })
	})
}

// addPrecommit counts a precommit; on quorum the block is decided and every
// replica executes it.
func (c *Chain) addPrecommit(g uint64, v Vote) {
	if c.Stopped() || g != c.gen || c.phase != phasePrevoted {
		return
	}
	if c.NodeDown(Validator(c.proposerIndex())) {
		return
	}
	if !c.precommits.Add(v) || !c.precommits.Reached() {
		return
	}
	c.phase = phaseExecuting
	perCore := time.Duration(len(c.pendingBatch)) * c.cfg.ExecCostPerTx / time.Duration(c.cfg.CoresPerNode)
	c.exec.Run(c.cfg.ProposalOverhead+perCore, func() { c.commitBlock(g) })
}

// commitBlock seals the decided block. The decision is final once the
// precommit quorum exists, so this runs even if the proposer has crashed
// since — every replica holds the certificate.
func (c *Chain) commitBlock(g uint64) {
	if c.Stopped() || g != c.gen {
		return
	}
	batch := c.pendingBatch
	c.pendingBatch = nil
	c.inflight -= len(batch)
	c.version++
	blk := &chain.Block{Proposer: Validator(c.proposerIndex()), Txs: batch}
	blk.Receipts = c.ExecuteOrdered(c.state, batch, c.version)
	c.AppendBlock(0, blk)
	c.height++
	c.round = 0
	c.phase = phaseIdle
	c.prevotes, c.precommits = nil, nil
}

// onTimeout is the view change: a round that cannot assemble its quorums —
// crashed leader, partitioned committee — rotates the proposer. When the
// leader is down the proposal data is lost with it, stranding the batch for
// the driver's retry path; a reachable leader re-proposes the same batch in
// the next round. Timeouts are events on the round key of the virtual
// clock, so a view change happens at the same instant in every run
// regardless of worker or scheduler-shard count.
func (c *Chain) onTimeout(g uint64) {
	if c.Stopped() || g != c.gen {
		return
	}
	if c.phase == phaseIdle || c.phase == phaseExecuting {
		return
	}
	c.viewChanges++
	if c.NodeDown(Validator(c.proposerIndex())) && c.pendingBatch != nil {
		c.stranded += len(c.pendingBatch)
		c.inflight -= len(c.pendingBatch)
		c.pendingBatch = nil
	}
	c.round++
	c.phase = phaseIdle
	c.startRound()
}

// proposalHash digests the proposed block contents for vote targeting.
func proposalHash(height uint64, round uint32, batch []*chain.Transaction) chain.Hash {
	h := sha256.New()
	var hdr [12]byte
	binary.BigEndian.PutUint64(hdr[:], height)
	binary.BigEndian.PutUint32(hdr[8:], round)
	h.Write(hdr[:])
	for _, tx := range batch {
		h.Write(tx.ID[:])
	}
	var out chain.Hash
	h.Sum(out[:0])
	return out
}

// State exposes the replicated world state for audits and invariant checks.
func (c *Chain) State() *chain.State { return c.state }
