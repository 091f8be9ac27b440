// Package neuchain simulates Neuchain, a permissioned blockchain with
// deterministic ordering: an epoch server cuts epochs on a fixed interval, a
// client proxy batches incoming transactions, and block servers execute each
// epoch's batch in a deterministic order — there is no separate ordering
// phase to round-trip through. Removing that phase is what gives Neuchain
// its ~8.7k TPS / low-latency position in Fig 6.
package neuchain

import (
	"fmt"
	"sort"
	"time"

	"hammer/internal/chain"
	"hammer/internal/chains/basechain"
	"hammer/internal/eventsim"
	"hammer/internal/netsim"
)

// Config parameterises the simulated Neuchain deployment.
type Config struct {
	// BlockServers is the number of executing replicas (paper: 3, plus an
	// epoch server and a client proxy).
	BlockServers int
	// CoresPerNode models the testbed's 2-vCPU instances.
	CoresPerNode int
	// EpochInterval is the deterministic epoch cut cadence.
	EpochInterval time.Duration
	// ExecCostPerTx is the CPU time to execute one transaction on a block
	// server; with CoresPerNode lanes it sets the throughput ceiling.
	ExecCostPerTx time.Duration
	// EpochOverhead is the fixed per-epoch coordination cost.
	EpochOverhead time.Duration
	// PendingCap bounds admitted-but-unexecuted transactions.
	PendingCap int
	// TxBytes approximates the wire size of a transaction.
	TxBytes int
	// Net configures the cluster network.
	Net netsim.Config
	// State constructs the world state; nil means the in-RAM map. Runs at
	// large account populations mount the disk-backed paged store here.
	State chain.StateFactory `json:"-"`
}

// DefaultConfig matches the paper's 5-node deployment and lands peak
// throughput near Fig 6's ~8.7k TPS.
func DefaultConfig() Config {
	return Config{
		BlockServers:  3,
		CoresPerNode:  2,
		EpochInterval: 50 * time.Millisecond,
		ExecCostPerTx: 225 * time.Microsecond,
		EpochOverhead: 4 * time.Millisecond,
		PendingCap:    10_000,
		TxBytes:       700,
		Net:           netsim.DefaultConfig(),
	}
}

// Chain is the simulated Neuchain deployment.
type Chain struct {
	basechain.Base
	cfg   Config
	net   *netsim.Network
	state *chain.State

	// exec models the representative block server; all replicas execute
	// the same deterministic schedule, so one bounds commit time.
	exec *basechain.Compute

	proxyQueue []*chain.Transaction
	// inflight counts transactions cut into epochs but not yet committed;
	// admission counts them against PendingCap.
	inflight int
	stranded int
	epochs   *eventsim.Ticker
	version  uint64
}

var (
	_ chain.Blockchain  = (*Chain)(nil)
	_ chain.AuditLogger = (*Chain)(nil)
)

// New builds the simulated deployment on the shared scheduler.
func New(sched eventsim.Sched, cfg Config) *Chain {
	def := DefaultConfig()
	if cfg.BlockServers <= 0 {
		cfg.BlockServers = def.BlockServers
	}
	if cfg.CoresPerNode <= 0 {
		cfg.CoresPerNode = def.CoresPerNode
	}
	if cfg.EpochInterval <= 0 {
		cfg.EpochInterval = def.EpochInterval
	}
	if cfg.ExecCostPerTx <= 0 {
		cfg.ExecCostPerTx = def.ExecCostPerTx
	}
	if cfg.EpochOverhead <= 0 {
		cfg.EpochOverhead = def.EpochOverhead
	}
	if cfg.PendingCap <= 0 {
		cfg.PendingCap = def.PendingCap
	}
	if cfg.TxBytes <= 0 {
		cfg.TxBytes = def.TxBytes
	}
	c := &Chain{
		cfg:   cfg,
		state: chain.NewStateFrom(cfg.State),
	}
	c.Init("neuchain", sched, 1)
	c.net = netsim.New(sched, cfg.Net)
	c.RegisterNodes("proxy", "epoch-server")
	for i := 0; i < cfg.BlockServers; i++ {
		c.RegisterNodes(blockServer(i))
	}
	// Epochs execute strictly one after another; intra-epoch parallelism
	// across the node's cores is folded into the per-epoch cost, so the
	// compute resource itself has a single lane.
	c.exec = basechain.NewComputeKey(sched, 1, epochShardKey)
	return c
}

func blockServer(i int) string { return fmt.Sprintf("block-server-%d", i) }

// Network exposes the cluster network as a fault-injection target for the
// chaos subsystem.
func (c *Chain) Network() *netsim.Network { return c.net }

// Stranded reports transactions lost to a crash mid-epoch (cut from the
// queue but never committed); the driver's retry path recovers them.
func (c *Chain) Stranded() int { return c.stranded }

// Admission refusals are preallocated: a loaded run refuses a large share of
// its submissions, and errors.Is still matches the chain sentinels.
var (
	errProxyDown = fmt.Errorf("neuchain: client proxy down: %w", chain.ErrUnavailable)
	errProxyFull = fmt.Errorf("neuchain: proxy queue full: %w", chain.ErrOverloaded)
)

// Submit implements chain.Blockchain: the client proxy queues the
// transaction for the next epoch.
func (c *Chain) Submit(tx *chain.Transaction) (chain.TxID, error) {
	if c.Stopped() {
		return chain.TxID{}, chain.ErrStopped
	}
	if !c.Running() {
		return chain.TxID{}, fmt.Errorf("neuchain: %w", chain.ErrStopped)
	}
	if c.NodeDown("proxy") {
		return chain.TxID{}, errProxyDown
	}
	if len(c.proxyQueue)+c.inflight >= c.cfg.PendingCap {
		return chain.TxID{}, errProxyFull
	}
	if tx.ID == (chain.TxID{}) {
		tx.ComputeID()
	}
	c.proxyQueue = append(c.proxyQueue, tx)
	return tx.ID, nil
}

// PendingTxs implements chain.Blockchain.
func (c *Chain) PendingTxs() int { return len(c.proxyQueue) + c.inflight }

// Start implements chain.Blockchain: the epoch server begins cutting epochs.
func (c *Chain) Start() {
	if !c.MarkStarted() {
		return
	}
	c.epochs = c.Sched.EveryKey(epochShardKey, c.cfg.EpochInterval, c.cutEpoch)
}

// epochShardKey pins the epoch server's timers to one scheduler shard.
var epochShardKey = eventsim.Key("epoch-server")

// Stop implements chain.Blockchain.
func (c *Chain) Stop() {
	c.MarkStopped()
	if c.epochs != nil {
		c.epochs.Stop()
	}
}

// cutEpoch drains the proxy queue, orders the batch deterministically and
// executes it on the block servers.
func (c *Chain) cutEpoch() {
	if c.Stopped() || len(c.proxyQueue) == 0 {
		return
	}
	// Faults stall the epoch with the queue intact: a down epoch server
	// cuts nothing, and with no reachable block server the proxy holds the
	// batch. The backlog drains once the next healthy epoch fires.
	if c.NodeDown("epoch-server") || c.NodeDown("proxy") {
		return
	}
	target := ""
	for i := 0; i < c.cfg.BlockServers; i++ {
		if !c.NodeDown(blockServer(i)) && !c.net.Partitioned("proxy", blockServer(i)) {
			target = blockServer(i)
			break
		}
	}
	if target == "" {
		return
	}
	// Cap the epoch at what the executor can absorb in roughly two epoch
	// intervals, so backlog drains smoothly rather than in one giant block.
	maxBatch := int(2 * float64(c.cfg.EpochInterval) / float64(c.cfg.ExecCostPerTx) * float64(c.cfg.CoresPerNode))
	if maxBatch < 1 {
		maxBatch = 1
	}
	take := len(c.proxyQueue)
	if take > maxBatch {
		take = maxBatch
	}
	batch := c.proxyQueue[:take]
	rest := make([]*chain.Transaction, len(c.proxyQueue)-take)
	copy(rest, c.proxyQueue[take:])
	c.proxyQueue = rest
	c.inflight += len(batch)

	// Deterministic ordering: sort by transaction ID. Every replica derives
	// the same schedule with no ordering round.
	ordered := make([]*chain.Transaction, len(batch))
	copy(ordered, batch)
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i].ID, ordered[j].ID
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})

	// Proxy ships the batch to the block servers; execution cost is split
	// across the node's cores (deterministic intra-epoch concurrency). A
	// target that crashes while the batch is in flight loses it — the
	// deterministic schedule was never replicated — stranding the batch.
	batchBytes := len(ordered) * c.cfg.TxBytes
	c.net.Send("proxy", target, batchBytes, func() {
		if c.NodeDown(target) {
			c.inflight -= len(ordered)
			c.stranded += len(ordered)
			return
		}
		perCore := time.Duration(len(ordered)) * c.cfg.ExecCostPerTx / time.Duration(c.cfg.CoresPerNode)
		c.exec.Run(c.cfg.EpochOverhead+perCore, func() {
			c.commit(ordered)
		})
	})
}

func (c *Chain) commit(ordered []*chain.Transaction) {
	if c.Stopped() {
		return
	}
	c.inflight -= len(ordered)
	c.version++
	blk := &chain.Block{Txs: ordered, Proposer: "block-server-0"}
	blk.Receipts = c.ExecuteOrdered(c.state, ordered, c.version)
	c.AppendBlock(0, blk)
}

// State exposes the world state for audits and invariant checks.
func (c *Chain) State() *chain.State { return c.state }
