// Package meepo simulates Meepo, a sharded consortium blockchain: the
// network is statically divided into shards, each running its own epoch-based
// consensus over its slice of the account space, and cross-shard transfers
// travel through the "cross-epoch" relay — debited in the source shard's
// epoch and credited in the destination shard's next epoch. Sharding
// multiplies throughput by the shard count at the price of epoch-granular
// latency, reproducing Meepo's high-throughput / high-latency position in
// Fig 6.
package meepo

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"time"

	"hammer/internal/chain"
	"hammer/internal/chains/basechain"
	"hammer/internal/eventsim"
	"hammer/internal/netsim"
	"hammer/internal/smallbank"
)

// ReshardEvent is one step of a deterministic shard join/leave timeline:
// at offset At after Start (on the virtual clock) the chain reconfigures to
// the given active shard count. Growing the count joins shards (new or
// previously departed ones); shrinking it removes the highest-numbered
// shards, whose queues, inboxes and state re-home into the survivors. Each
// step waits for in-flight epochs to drain, so it is exactly reproducible at
// any worker or scheduler-shard count.
type ReshardEvent struct {
	At     time.Duration
	Shards int
}

// Config parameterises the simulated Meepo deployment.
type Config struct {
	// Shards is the number of shards active at start (paper: 2; any N >= 1).
	Shards int
	// MembersPerShard is the number of consenting nodes per shard
	// (paper: 3 nodes participate in both shards).
	MembersPerShard int
	// CoresPerNode models the testbed's 2-vCPU instances.
	CoresPerNode int
	// EpochInterval is the per-shard consensus epoch cadence.
	EpochInterval time.Duration
	// ConsensusOverhead is the fixed per-epoch agreement cost among shard
	// members.
	ConsensusOverhead time.Duration
	// ExecCostPerTx is the CPU time to execute one transaction in a shard.
	ExecCostPerTx time.Duration
	// PendingCapPerShard bounds each shard's admission queue.
	PendingCapPerShard int
	// DynamicSharding enables shard formation under sustained load
	// (§II-A2): when every shard's backlog exceeds SplitBacklogFrac of
	// PendingCapPerShard for SplitPatience consecutive epochs, the shard
	// count doubles (up to MaxShards) in a quiesced reconfiguration.
	DynamicSharding  bool
	SplitBacklogFrac float64
	SplitPatience    int
	MaxShards        int
	// Reshard is an optional deterministic join/leave timeline, applied on
	// the virtual clock independently of DynamicSharding. Targets are
	// clamped to [1, MaxShards]; MaxShards is raised automatically to cover
	// the timeline and the initial shard count.
	Reshard []ReshardEvent
	// TxBytes approximates the wire size of a transaction.
	TxBytes int
	// Net configures the cluster network.
	Net netsim.Config
	// State constructs each shard's world state; nil means the in-RAM
	// map. The factory runs once per shard (including shards created by
	// dynamic splits), so every shard gets an independent store.
	State chain.StateFactory `json:"-"`
}

// DefaultConfig matches the paper's two-shard deployment.
func DefaultConfig() Config {
	return Config{
		Shards:             2,
		MembersPerShard:    3,
		CoresPerNode:       2,
		EpochInterval:      400 * time.Millisecond,
		ConsensusOverhead:  30 * time.Millisecond,
		ExecCostPerTx:      700 * time.Microsecond,
		PendingCapPerShard: 5_000,
		TxBytes:            800,
		Net:                netsim.DefaultConfig(),
	}
}

// crossWrite is a credit relayed from a source shard to a destination shard
// through the cross-epoch mechanism.
type crossWrite struct {
	tx     *chain.Transaction
	toKey  string
	amount int64
}

type shardState struct {
	state *chain.State
	queue []*chain.Transaction
	inbox []crossWrite // cross-shard credits awaiting this shard's epoch
	// inflight counts transactions cut into epochs but not yet committed;
	// admission counts them against PendingCapPerShard.
	inflight int
	exec     *basechain.Compute
	version  uint64
	// leader is member 0's node name, which proposes the shard's epochs and
	// relays its cross-shard credits; named once per shard.
	leader string
}

// Chain is the simulated Meepo deployment.
type Chain struct {
	basechain.Base
	cfg      Config
	net      *netsim.Network
	shards   []*shardState
	stranded int
	epochs   *eventsim.Ticker
	// crossDebited records the amount debited in the source shard for each
	// cross-shard transfer ID. A driver resubmission of the same transaction
	// (duplicate ID) skips the debit — the value already left the source
	// account — but still relays, so the destination can commit the transfer
	// if the original relay was lost to a partition. crossOutstanding totals
	// debits whose credit has not yet been applied: value in transit through
	// the cross-epoch, which the conservation invariant accounts for.
	crossDebited     map[chain.TxID]int64
	crossOutstanding int64
	// dynamic sharding state. active is the number of currently consenting
	// shards — always a prefix of c.shards, so departed shards keep their
	// (paused) basechain ledgers and can rejoin later. reshardTarget is the
	// pending reconfiguration goal while draining in-flight epochs.
	active        int
	splitPressure int
	reconfiguring bool
	reshardTarget int
	resharded     int
}

var (
	_ chain.Blockchain  = (*Chain)(nil)
	_ chain.AuditLogger = (*Chain)(nil)
)

// New builds the simulated deployment on the shared scheduler.
func New(sched eventsim.Sched, cfg Config) *Chain {
	def := DefaultConfig()
	if cfg.Shards <= 0 {
		cfg.Shards = def.Shards
	}
	if cfg.MembersPerShard <= 0 {
		cfg.MembersPerShard = def.MembersPerShard
	}
	if cfg.CoresPerNode <= 0 {
		cfg.CoresPerNode = def.CoresPerNode
	}
	if cfg.EpochInterval <= 0 {
		cfg.EpochInterval = def.EpochInterval
	}
	if cfg.ConsensusOverhead <= 0 {
		cfg.ConsensusOverhead = def.ConsensusOverhead
	}
	if cfg.ExecCostPerTx <= 0 {
		cfg.ExecCostPerTx = def.ExecCostPerTx
	}
	if cfg.PendingCapPerShard <= 0 {
		cfg.PendingCapPerShard = def.PendingCapPerShard
	}
	if cfg.SplitBacklogFrac <= 0 {
		cfg.SplitBacklogFrac = 0.8
	}
	if cfg.SplitPatience <= 0 {
		cfg.SplitPatience = 3
	}
	if cfg.MaxShards <= 0 {
		cfg.MaxShards = 8
	}
	if cfg.MaxShards < cfg.Shards {
		cfg.MaxShards = cfg.Shards
	}
	for _, ev := range cfg.Reshard {
		if ev.Shards > cfg.MaxShards {
			cfg.MaxShards = ev.Shards
		}
	}
	if cfg.TxBytes <= 0 {
		cfg.TxBytes = def.TxBytes
	}
	c := &Chain{cfg: cfg, active: cfg.Shards, crossDebited: make(map[chain.TxID]int64)}
	c.Init("meepo", sched, cfg.Shards)
	c.net = netsim.New(sched, cfg.Net)
	for i := 0; i < cfg.Shards; i++ {
		c.shards = append(c.shards, &shardState{
			state: chain.NewStateFrom(cfg.State),
			// Epochs within a shard execute serially; the per-epoch cost
			// already folds in intra-epoch core parallelism. Each chain
			// shard's compute timers ride its own scheduler shard.
			exec:   basechain.NewComputeKey(sched, 1, uint64(i)),
			leader: member(i, 0),
		})
		for j := 0; j < cfg.MembersPerShard; j++ {
			c.RegisterNodes(member(i, j))
		}
	}
	return c
}

// Network exposes the cluster network as a fault-injection target for the
// chaos subsystem.
func (c *Chain) Network() *netsim.Network { return c.net }

// Stranded reports transactions lost to a crash mid-epoch; the driver's
// retry path recovers them.
func (c *Chain) Stranded() int { return c.stranded }

// shardQuorum reports whether shard sh has a majority of members alive, and
// returns the first two alive members (proposer and its first follower).
func (c *Chain) shardQuorum(sh int) (proposer, follower string, ok bool) {
	alive := make([]string, 0, c.cfg.MembersPerShard)
	for j := 0; j < c.cfg.MembersPerShard; j++ {
		if !c.NodeDown(member(sh, j)) {
			alive = append(alive, member(sh, j))
		}
	}
	if len(alive) < c.cfg.MembersPerShard/2+1 || len(alive) < 2 {
		return "", "", false
	}
	return alive[0], alive[1], true
}

// ShardIndex maps an account name to its home shard among n shards by FNV-1a
// hash — the paper's static account distribution, exposed as a pure function
// so workload generators can steer a target cross-shard rate with the same
// mapping the chain routes by.
func ShardIndex(account string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(account))
	return int(h.Sum32() % uint32(n))
}

// ShardOf maps an account name to its home shard among the currently active
// shards. The mapping shifts at each reshard step, which is what re-homes
// accounts when shards join or leave.
func (c *Chain) ShardOf(account string) int {
	return ShardIndex(account, c.active)
}

// ActiveShards reports how many shards are currently consenting; departed
// shards keep their ledgers but cut no epochs until they rejoin.
func (c *Chain) ActiveShards() int { return c.active }

// errShardFull is the preallocated admission refusal; errors.Is matches
// chain.ErrOverloaded.
var errShardFull = fmt.Errorf("meepo: shard queue full: %w", chain.ErrOverloaded)

// Submit implements chain.Blockchain: the transaction is routed to the home
// shard of its sender (From, falling back to the first argument).
func (c *Chain) Submit(tx *chain.Transaction) (chain.TxID, error) {
	if c.Stopped() {
		return chain.TxID{}, chain.ErrStopped
	}
	if !c.Running() {
		return chain.TxID{}, fmt.Errorf("meepo: %w", chain.ErrStopped)
	}
	owner := tx.From
	if owner == "" && len(tx.Args) > 0 {
		owner = tx.Args[0]
	}
	sh := c.ShardOf(owner)
	ss := c.shards[sh]
	if len(ss.queue)+ss.inflight >= c.cfg.PendingCapPerShard {
		return chain.TxID{}, errShardFull
	}
	if tx.ID == (chain.TxID{}) {
		tx.ComputeID()
	}
	ss.queue = append(ss.queue, tx)
	return tx.ID, nil
}

// PendingTxs implements chain.Blockchain.
func (c *Chain) PendingTxs() int {
	n := 0
	for _, ss := range c.shards {
		n += len(ss.queue) + len(ss.inbox) + ss.inflight
	}
	return n
}

// Start implements chain.Blockchain: every active shard begins its epoch
// cycle, and the configured reshard timeline is armed relative to now.
func (c *Chain) Start() {
	if !c.MarkStarted() {
		return
	}
	c.epochs = c.Sched.EveryKey(eventsim.Key("meepo/epochs"), c.cfg.EpochInterval, func() {
		if !c.reconfiguring {
			for sh := 0; sh < c.active; sh++ {
				c.runEpoch(sh)
			}
		}
		c.maybeReshard()
	})
	for _, ev := range c.cfg.Reshard {
		ev := ev
		c.Sched.AfterKey(eventsim.Key("meepo/reshard"), ev.At, func() {
			if c.Stopped() {
				return
			}
			c.requestResize(ev.Shards)
		})
	}
}

// Stop implements chain.Blockchain.
func (c *Chain) Stop() {
	c.MarkStopped()
	if c.epochs != nil {
		c.epochs.Stop()
	}
}

// runEpoch executes one shard's consensus epoch: agree on the batch, apply
// queued cross-shard credits, execute local transactions, and relay any new
// cross-shard writes to their destination shards.
func (c *Chain) runEpoch(sh int) {
	ss := c.shards[sh]
	if c.Stopped() || (len(ss.queue) == 0 && len(ss.inbox) == 0) {
		return
	}
	// Without a quorum of live, mutually reachable members the shard's
	// epoch stalls with its queue intact; it resumes on the next tick after
	// enough members restart or the partition heals.
	proposer, follower, ok := c.shardQuorum(sh)
	if !ok || c.net.Partitioned(proposer, follower) {
		return
	}
	maxBatch := int(2 * float64(c.cfg.EpochInterval) / float64(c.cfg.ExecCostPerTx) * float64(c.cfg.CoresPerNode))
	if maxBatch < 1 {
		maxBatch = 1
	}
	take := len(ss.queue)
	if take > maxBatch {
		take = maxBatch
	}
	batch := ss.queue[:take]
	rest := make([]*chain.Transaction, len(ss.queue)-take)
	copy(rest, ss.queue[take:])
	ss.queue = rest
	ss.inflight += len(batch)

	inbox := ss.inbox
	ss.inbox = nil

	perCore := time.Duration(len(batch)+len(inbox)) * c.cfg.ExecCostPerTx / time.Duration(c.cfg.CoresPerNode)
	cost := c.cfg.ConsensusOverhead + perCore
	// Intra-shard consensus: members exchange the epoch proposal before
	// execution; the broadcast is folded into the fixed overhead plus one
	// batch transfer between members. A proposer that crashes with the
	// proposal in flight loses the epoch — its transactions are stranded
	// (cross-shard credits already inboxed are returned for the next
	// healthy epoch).
	c.net.Send(proposer, follower, len(batch)*c.cfg.TxBytes, func() {
		if c.NodeDown(proposer) {
			ss.inflight -= len(batch)
			c.stranded += len(batch)
			ss.inbox = append(inbox, ss.inbox...)
			return
		}
		ss.exec.Run(cost, func() {
			c.commitEpoch(sh, batch, inbox)
		})
	})
}

func member(shard, i int) string { return fmt.Sprintf("shard%d-member%d", shard, i) }

func (c *Chain) commitEpoch(sh int, batch []*chain.Transaction, inbox []crossWrite) {
	if c.Stopped() {
		return
	}
	ss := c.shards[sh]
	ss.inflight -= len(batch)
	ss.version++
	blk := &chain.Block{Proposer: ss.leader}

	// The epoch's receipts share one slab with room for every receipt it
	// can issue, so appends never move the receipts the block points at.
	n := len(inbox) + len(batch)
	slab := make([]chain.Receipt, 0, n)
	blk.Txs = make([]*chain.Transaction, 0, n)
	blk.Receipts = make([]*chain.Receipt, 0, n)
	issue := func(r chain.Receipt) {
		slab = append(slab, r)
		blk.Receipts = append(blk.Receipts, &slab[len(slab)-1])
	}

	// Apply relayed cross-shard credits first; their receipts complete the
	// originating transactions. The inbox is idempotent per transaction ID:
	// when both the original relay and a resubmission's retransmission
	// arrive, the first credits and commits, the rest abort as duplicates —
	// the transfer lands exactly once however many relays survived the fault.
	var applied map[chain.TxID]struct{}
	for _, cw := range inbox {
		blk.Txs = append(blk.Txs, cw.tx)
		if _, dup := applied[cw.tx.ID]; dup || c.AlreadyCommitted(cw.tx.ID) {
			issue(chain.Receipt{TxID: cw.tx.ID, Status: chain.StatusAborted, Err: chain.ErrDuplicateTx.Error()})
			continue
		}
		if applied == nil {
			applied = make(map[chain.TxID]struct{})
		}
		applied[cw.tx.ID] = struct{}{}
		applyCredit(ss.state, cw.toKey, cw.amount, ss.version)
		c.crossOutstanding -= cw.amount
		issue(chain.Receipt{TxID: cw.tx.ID, Status: chain.StatusCommitted})
	}

	ex := chain.NewExecutor(ss.state) // reset per transaction by executeSharded
	var committed map[chain.TxID]struct{}
	for _, tx := range batch {
		r, ok := c.executeSharded(ex, sh, tx, ss.version, committed)
		if !ok {
			continue // cross-shard: receipt is issued by the destination shard
		}
		if r.Status == chain.StatusCommitted {
			if committed == nil {
				committed = make(map[chain.TxID]struct{})
			}
			committed[tx.ID] = struct{}{}
		}
		blk.Txs = append(blk.Txs, tx)
		issue(r)
	}
	if len(blk.Txs) == 0 && len(blk.Receipts) == 0 {
		return
	}
	c.AppendBlock(sh, blk)
}

// executeSharded executes tx in shard sh on ex, which it resets first.
// SmallBank transfers whose destination lives on another shard are split:
// the debit applies here and the credit is relayed through the cross-epoch;
// ok is false because the destination shard will issue the receipt.
// committedInEpoch carries the IDs already committed earlier in this epoch's
// batch, so a duplicate resubmission landing in the same epoch aborts
// instead of re-applying.
func (c *Chain) executeSharded(ex *chain.Executor, sh int, tx *chain.Transaction, version uint64, committedInEpoch map[chain.TxID]struct{}) (r chain.Receipt, ok bool) {
	ss := c.shards[sh]
	if tx.Contract == smallbank.ContractName && len(tx.Args) >= 2 {
		switch tx.Op {
		case smallbank.OpTransfer:
			if len(tx.Args) == 3 && c.ShardOf(tx.Args[1]) != sh {
				return c.crossShardTransfer(sh, tx, tx.Args[0], tx.Args[1], version)
			}
		case smallbank.OpAmalgamate:
			// Only transfers travel through the cross-epoch; a
			// multi-account amalgamation across shards is not supported
			// by the sharded execution model and aborts honestly.
			if c.ShardOf(tx.Args[1]) != sh {
				return chain.Receipt{TxID: tx.ID, Status: chain.StatusAborted,
					Err: "meepo: cross-shard amalgamate unsupported"}, true
			}
		}
	}
	if _, dup := committedInEpoch[tx.ID]; dup || c.AlreadyCommitted(tx.ID) {
		return chain.Receipt{TxID: tx.ID, Status: chain.StatusAborted, Err: chain.ErrDuplicateTx.Error()}, true
	}
	ct, err := c.Contract(tx.Contract)
	if err != nil {
		return chain.Receipt{TxID: tx.ID, Status: chain.StatusAborted, Err: err.Error()}, true
	}
	ex.Reset(ss.state)
	if err := ct.Invoke(ex, tx.Op, tx.Args); err != nil {
		return chain.Receipt{TxID: tx.ID, Status: chain.StatusAborted, Err: err.Error()}, true
	}
	ex.RWSet().Apply(ss.state, version)
	return chain.Receipt{TxID: tx.ID, Status: chain.StatusCommitted}, true
}

// crossShardTransfer debits the source account locally and relays the credit
// to the destination shard's inbox for its next epoch. It reports false once
// the credit is relayed, since the destination shard issues the receipt; a
// refused debit returns its aborted receipt.
func (c *Chain) crossShardTransfer(sh int, tx *chain.Transaction, from, to string, version uint64) (chain.Receipt, bool) {
	ss := c.shards[sh]
	amount, err := strconv.ParseInt(tx.Args[2], 10, 64)
	if err != nil || amount < 0 {
		return chain.Receipt{TxID: tx.ID, Status: chain.StatusAborted, Err: "meepo: bad transfer amount"}, true
	}
	if _, debited := c.crossDebited[tx.ID]; !debited {
		key := "c:" + from
		raw, _, ok := ss.state.Get(key)
		if !ok {
			return chain.Receipt{TxID: tx.ID, Status: chain.StatusAborted, Err: "meepo: unknown source account " + from}, true
		}
		bal, err := strconv.ParseInt(string(raw), 10, 64)
		if err != nil {
			return chain.Receipt{TxID: tx.ID, Status: chain.StatusAborted, Err: "meepo: corrupt balance for " + from}, true
		}
		ss.state.Set(key, strconv.AppendInt(nil, bal-amount, 10), version)
		c.crossDebited[tx.ID] = amount
		c.crossOutstanding += amount
	}
	// A duplicate (already-debited) transfer skips the debit but still
	// relays: if the original relay was lost to a partition the
	// retransmission is what completes the transfer, and if it survived the
	// destination's idempotent inbox aborts this copy. Either way the wire
	// traffic is the same as for a first execution, so the network schedule
	// is independent of deduplication.
	dest := c.ShardOf(to)
	cw := crossWrite{tx: tx, toKey: "c:" + to, amount: amount}
	// Relay the credit to a destination-shard member; it lands in the
	// inbox and applies in that shard's next epoch (the cross-epoch). The
	// destination is re-resolved at delivery: a dynamic reshard may have
	// re-homed the account while the message was in flight.
	c.net.Send(ss.leader, c.shards[dest].leader, c.cfg.TxBytes, func() {
		if c.Stopped() {
			return
		}
		live := c.ShardOf(to)
		c.shards[live].inbox = append(c.shards[live].inbox, cw)
	})
	return chain.Receipt{}, false
}

func applyCredit(state *chain.State, key string, amount int64, version uint64) {
	var bal int64
	if raw, _, ok := state.Get(key); ok {
		if v, err := strconv.ParseInt(string(raw), 10, 64); err == nil {
			bal = v
		}
	}
	state.Set(key, strconv.AppendInt(nil, bal+amount, 10), version)
}

// OutstandingCrossDebits reports the total value debited from source shards
// whose credit has not (yet) been applied at the destination — money in
// transit through the cross-epoch, or lost with a dropped relay whose
// retransmissions never got through. The conservation invariant adds it to
// the summed shard balances: state + in-transit == expected.
func (c *Chain) OutstandingCrossDebits() int64 { return c.crossOutstanding }

// ShardState exposes a shard's world state for audits and invariant checks.
func (c *Chain) ShardState(shard int) (*chain.State, error) {
	if shard < 0 || shard >= len(c.shards) {
		return nil, fmt.Errorf("meepo: shard %d out of range [0,%d)", shard, len(c.shards))
	}
	return c.shards[shard].state, nil
}
