// Package deploy is the Ansible-equivalent of the paper's preparation phase
// (§III-A1): declarative JSON playbooks describe a system under test — which
// blockchain, how many nodes, which consensus parameters — and Run builds
// the simulated cluster, replacing the paper's automated deployment scripts
// for its four SUTs.
package deploy

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"hammer/internal/chain"
	"hammer/internal/chains/committee"
	"hammer/internal/chains/ethereum"
	"hammer/internal/chains/fabric"
	"hammer/internal/chains/meepo"
	"hammer/internal/chains/neuchain"
	"hammer/internal/eventsim"
	"hammer/internal/loadplane"
	"hammer/internal/netsim"
)

// Playbook declares one SUT deployment.
type Playbook struct {
	// Name labels the deployment in logs.
	Name string `json:"name"`
	// Kind selects the chain: "ethereum", "fabric", "neuchain", "meepo",
	// "committee".
	Kind string `json:"kind"`
	// Net overrides the cluster network (optional).
	Net *NetSpec `json:"net,omitempty"`
	// Cluster declares the distributed load plane: where the coordinator
	// listens and which named worker processes generate traffic (optional).
	Cluster *ClusterSpec `json:"cluster,omitempty"`
	// Exactly one of the per-chain specs may be set; nil uses defaults.
	Ethereum  *EthereumSpec  `json:"ethereum,omitempty"`
	Fabric    *FabricSpec    `json:"fabric,omitempty"`
	Neuchain  *NeuchainSpec  `json:"neuchain,omitempty"`
	Meepo     *MeepoSpec     `json:"meepo,omitempty"`
	Committee *CommitteeSpec `json:"committee,omitempty"`
}

// NetSpec configures the simulated cluster network. Durations are
// milliseconds to keep playbooks plain JSON.
type NetSpec struct {
	LatencyMs     float64 `json:"latency_ms"`
	BandwidthMbps float64 `json:"bandwidth_mbps"`
	JitterFrac    float64 `json:"jitter_frac"`
	Seed          int64   `json:"seed"`
}

func (n *NetSpec) toConfig() netsim.Config {
	cfg := netsim.DefaultConfig()
	if n == nil {
		return cfg
	}
	if n.LatencyMs > 0 {
		cfg.Latency = time.Duration(n.LatencyMs * float64(time.Millisecond))
	}
	if n.BandwidthMbps > 0 {
		cfg.BandwidthBps = n.BandwidthMbps * 1e6 / 8
	}
	if n.JitterFrac > 0 {
		cfg.JitterFrac = n.JitterFrac
	}
	if n.Seed != 0 {
		cfg.Seed = n.Seed
	}
	return cfg
}

// ClusterSpec declares the distributed load plane of a deployment: the
// coordinator's listen address and the worker processes that will join it.
type ClusterSpec struct {
	// Coordinator is the address the coordinator serves on (host:port).
	Coordinator string `json:"coordinator"`
	// Workers are the traffic-generation processes. Names must be unique —
	// a worker's name is its identity for crash rejoin, so two workers
	// sharing one name would silently corrupt each other's resume state.
	Workers []WorkerSpec `json:"workers"`
}

// WorkerSpec names one load-plane worker and optionally pins its half-open
// client range [lo, hi). Leaving both zero lets the coordinator assign a
// balanced range at join time.
type WorkerSpec struct {
	Name string `json:"name"`
	Lo   int    `json:"lo,omitempty"`
	Hi   int    `json:"hi,omitempty"`
}

// pinned reports whether the spec pins an explicit client range.
func (w WorkerSpec) pinned() bool { return w.Lo != 0 || w.Hi != 0 }

// EthereumSpec overrides the Ethereum simulator's defaults.
type EthereumSpec struct {
	Nodes           int     `json:"nodes"`
	BlockIntervalMs float64 `json:"block_interval_ms"`
	GasLimit        uint64  `json:"gas_limit"`
	MempoolCap      int     `json:"mempool_cap"`
	Seed            int64   `json:"seed"`
}

// FabricSpec overrides the Fabric simulator's defaults.
type FabricSpec struct {
	Peers               int     `json:"peers"`
	MaxMessages         int     `json:"max_messages"`
	BatchTimeoutMs      float64 `json:"batch_timeout_ms"`
	PendingCap          int     `json:"pending_cap"`
	EndorseCostUs       float64 `json:"endorse_cost_us"`
	ValidateCostPerTxUs float64 `json:"validate_cost_per_tx_us"`
}

// NeuchainSpec overrides the Neuchain simulator's defaults.
type NeuchainSpec struct {
	BlockServers    int     `json:"block_servers"`
	EpochIntervalMs float64 `json:"epoch_interval_ms"`
	ExecCostPerTxUs float64 `json:"exec_cost_per_tx_us"`
	PendingCap      int     `json:"pending_cap"`
}

// MeepoSpec overrides the Meepo simulator's defaults.
type MeepoSpec struct {
	Shards             int     `json:"shards"`
	EpochIntervalMs    float64 `json:"epoch_interval_ms"`
	ExecCostPerTxUs    float64 `json:"exec_cost_per_tx_us"`
	PendingCapPerShard int     `json:"pending_cap_per_shard"`
	// DynamicSharding enables shard formation under sustained load.
	DynamicSharding bool `json:"dynamic_sharding"`
	MaxShards       int  `json:"max_shards"`
}

// CommitteeSpec overrides the BFT committee simulator's defaults.
type CommitteeSpec struct {
	Validators      int     `json:"validators"`
	BlockIntervalMs float64 `json:"block_interval_ms"`
	RoundTimeoutMs  float64 `json:"round_timeout_ms"`
	ExecCostPerTxUs float64 `json:"exec_cost_per_tx_us"`
	PendingCap      int     `json:"pending_cap"`
}

// Load reads a playbook from a JSON file.
func Load(path string) (*Playbook, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("deploy: read playbook: %w", err)
	}
	return Parse(raw)
}

// Parse decodes a playbook from JSON and validates it, so a typo'd kind or
// an absurd override fails here rather than halfway through building (or
// running) the cluster.
func Parse(raw []byte) (*Playbook, error) {
	pb := &Playbook{}
	if err := json.Unmarshal(raw, pb); err != nil {
		return nil, fmt.Errorf("deploy: parse playbook: %w", err)
	}
	if pb.Kind == "" {
		return nil, fmt.Errorf("deploy: playbook %q missing kind", pb.Name)
	}
	if err := pb.validate(); err != nil {
		return nil, err
	}
	return pb, nil
}

// Bounds on playbook overrides. JSON admits finite-but-enormous numbers; an
// interval of 1e308 ms would overflow time.Duration and a node count in the
// millions would hang cluster construction, so both are configuration
// mistakes worth rejecting at parse time.
const (
	maxSpecDurationMs = 1e9 // ~11.6 days, far beyond any sane interval
	maxSpecNodes      = 1e4
)

func (pb *Playbook) validate() error {
	known := false
	for _, k := range Kinds() {
		known = known || k == pb.Kind
	}
	if !known {
		return fmt.Errorf("deploy: playbook %q: unknown chain kind %q (supported: %v)", pb.Name, pb.Kind, Kinds())
	}
	dur := func(field string, v float64) error {
		if v < 0 || v > maxSpecDurationMs {
			return fmt.Errorf("deploy: playbook %q: %s %g out of range [0, %g]", pb.Name, field, v, float64(maxSpecDurationMs))
		}
		return nil
	}
	count := func(field string, v int) error {
		if v < 0 || v > maxSpecNodes {
			return fmt.Errorf("deploy: playbook %q: %s %d out of range [0, %d]", pb.Name, field, v, int(maxSpecNodes))
		}
		return nil
	}
	nonneg := func(field string, v int) error {
		if v < 0 {
			return fmt.Errorf("deploy: playbook %q: %s %d is negative", pb.Name, field, v)
		}
		return nil
	}
	checks := []error{}
	if n := pb.Net; n != nil {
		checks = append(checks,
			dur("net.latency_ms", n.LatencyMs),
			dur("net.bandwidth_mbps", n.BandwidthMbps),
			dur("net.jitter_frac", n.JitterFrac))
	}
	if s := pb.Ethereum; s != nil {
		checks = append(checks,
			count("ethereum.nodes", s.Nodes),
			nonneg("ethereum.mempool_cap", s.MempoolCap),
			dur("ethereum.block_interval_ms", s.BlockIntervalMs))
	}
	if s := pb.Fabric; s != nil {
		checks = append(checks,
			count("fabric.peers", s.Peers),
			nonneg("fabric.pending_cap", s.PendingCap),
			nonneg("fabric.max_messages", s.MaxMessages),
			dur("fabric.batch_timeout_ms", s.BatchTimeoutMs),
			dur("fabric.endorse_cost_us", s.EndorseCostUs),
			dur("fabric.validate_cost_per_tx_us", s.ValidateCostPerTxUs))
	}
	if s := pb.Neuchain; s != nil {
		checks = append(checks,
			count("neuchain.block_servers", s.BlockServers),
			nonneg("neuchain.pending_cap", s.PendingCap),
			dur("neuchain.epoch_interval_ms", s.EpochIntervalMs),
			dur("neuchain.exec_cost_per_tx_us", s.ExecCostPerTxUs))
	}
	if s := pb.Committee; s != nil {
		checks = append(checks,
			count("committee.validators", s.Validators),
			nonneg("committee.pending_cap", s.PendingCap),
			dur("committee.block_interval_ms", s.BlockIntervalMs),
			dur("committee.round_timeout_ms", s.RoundTimeoutMs),
			dur("committee.exec_cost_per_tx_us", s.ExecCostPerTxUs))
	}
	if s := pb.Meepo; s != nil {
		checks = append(checks,
			count("meepo.shards", s.Shards),
			count("meepo.max_shards", s.MaxShards),
			nonneg("meepo.pending_cap_per_shard", s.PendingCapPerShard),
			dur("meepo.epoch_interval_ms", s.EpochIntervalMs),
			dur("meepo.exec_cost_per_tx_us", s.ExecCostPerTxUs))
	}
	for _, err := range checks {
		if err != nil {
			return err
		}
	}
	if pb.Cluster != nil {
		if err := pb.Cluster.validate(pb.Name); err != nil {
			return err
		}
	}
	return nil
}

// validate rejects cluster declarations that would misbehave at run time:
// duplicate worker names (rejoin identity collisions) and overlapping pinned
// client ranges (two workers generating — and double-counting — the same
// clients).
func (c *ClusterSpec) validate(playbook string) error {
	if c.Coordinator == "" {
		return fmt.Errorf("deploy: playbook %q: cluster missing coordinator address", playbook)
	}
	if len(c.Workers) == 0 {
		return fmt.Errorf("deploy: playbook %q: cluster declares no workers", playbook)
	}
	seen := make(map[string]bool, len(c.Workers))
	var pinned []WorkerSpec
	for _, w := range c.Workers {
		if w.Name == "" {
			return fmt.Errorf("deploy: playbook %q: cluster worker missing name", playbook)
		}
		if seen[w.Name] {
			return fmt.Errorf("deploy: playbook %q: duplicate worker name %q", playbook, w.Name)
		}
		seen[w.Name] = true
		if !w.pinned() {
			continue
		}
		if w.Lo < 0 || w.Hi <= w.Lo {
			return fmt.Errorf("deploy: playbook %q: worker %q has invalid client range [%d,%d)",
				playbook, w.Name, w.Lo, w.Hi)
		}
		pinned = append(pinned, w)
	}
	sort.Slice(pinned, func(i, j int) bool { return pinned[i].Lo < pinned[j].Lo })
	for i := 1; i < len(pinned); i++ {
		if pinned[i].Lo < pinned[i-1].Hi {
			return fmt.Errorf("deploy: playbook %q: workers %q and %q have overlapping client ranges [%d,%d) and [%d,%d)",
				playbook, pinned[i-1].Name, pinned[i].Name,
				pinned[i-1].Lo, pinned[i-1].Hi, pinned[i].Lo, pinned[i].Hi)
		}
	}
	return nil
}

// Assignments converts the cluster's worker specs into the coordinator's
// pinned range assignments for a population of the given size: pinned
// workers keep their declared ranges, unpinned workers take the balanced
// partition range at their position. The coordinator rejects pinned ranges
// that do not match its partition, so a playbook disagreeing with the spec
// fails loudly at startup rather than skewing results.
func (c *ClusterSpec) Assignments(clients int) map[string]loadplane.Range {
	ranges := loadplane.PartitionClients(clients, len(c.Workers))
	out := make(map[string]loadplane.Range, len(c.Workers))
	for i, w := range c.Workers {
		if w.pinned() {
			out[w.Name] = loadplane.Range{Lo: w.Lo, Hi: w.Hi}
		} else if i < len(ranges) {
			out[w.Name] = ranges[i]
		}
	}
	return out
}

// Run builds the declared SUT on the scheduler. It is the equivalent of
// executing the paper's Ansible playbook against the cluster.
func (pb *Playbook) Run(sched eventsim.Sched) (chain.Blockchain, error) {
	switch pb.Kind {
	case "ethereum":
		cfg := ethereum.DefaultConfig()
		if s := pb.Ethereum; s != nil {
			if s.Nodes > 0 {
				cfg.Nodes = s.Nodes
			}
			if s.BlockIntervalMs > 0 {
				cfg.BlockInterval = time.Duration(s.BlockIntervalMs * float64(time.Millisecond))
			}
			if s.GasLimit > 0 {
				cfg.GasLimit = s.GasLimit
			}
			if s.MempoolCap > 0 {
				cfg.MempoolCap = s.MempoolCap
			}
			if s.Seed != 0 {
				cfg.Seed = s.Seed
			}
		}
		return ethereum.New(sched, cfg), nil

	case "fabric":
		cfg := fabric.DefaultConfig()
		cfg.Net = pb.Net.toConfig()
		if s := pb.Fabric; s != nil {
			if s.Peers > 0 {
				cfg.Peers = s.Peers
			}
			if s.MaxMessages > 0 {
				cfg.MaxMessages = s.MaxMessages
			}
			if s.BatchTimeoutMs > 0 {
				cfg.BatchTimeout = time.Duration(s.BatchTimeoutMs * float64(time.Millisecond))
			}
			if s.PendingCap > 0 {
				cfg.PendingCap = s.PendingCap
			}
			if s.EndorseCostUs > 0 {
				cfg.EndorseCost = time.Duration(s.EndorseCostUs * float64(time.Microsecond))
			}
			if s.ValidateCostPerTxUs > 0 {
				cfg.ValidateCostPerTx = time.Duration(s.ValidateCostPerTxUs * float64(time.Microsecond))
			}
		}
		return fabric.New(sched, cfg), nil

	case "neuchain":
		cfg := neuchain.DefaultConfig()
		cfg.Net = pb.Net.toConfig()
		if s := pb.Neuchain; s != nil {
			if s.BlockServers > 0 {
				cfg.BlockServers = s.BlockServers
			}
			if s.EpochIntervalMs > 0 {
				cfg.EpochInterval = time.Duration(s.EpochIntervalMs * float64(time.Millisecond))
			}
			if s.ExecCostPerTxUs > 0 {
				cfg.ExecCostPerTx = time.Duration(s.ExecCostPerTxUs * float64(time.Microsecond))
			}
			if s.PendingCap > 0 {
				cfg.PendingCap = s.PendingCap
			}
		}
		return neuchain.New(sched, cfg), nil

	case "meepo":
		cfg := meepo.DefaultConfig()
		cfg.Net = pb.Net.toConfig()
		if s := pb.Meepo; s != nil {
			if s.Shards > 0 {
				cfg.Shards = s.Shards
			}
			if s.EpochIntervalMs > 0 {
				cfg.EpochInterval = time.Duration(s.EpochIntervalMs * float64(time.Millisecond))
			}
			if s.ExecCostPerTxUs > 0 {
				cfg.ExecCostPerTx = time.Duration(s.ExecCostPerTxUs * float64(time.Microsecond))
			}
			if s.PendingCapPerShard > 0 {
				cfg.PendingCapPerShard = s.PendingCapPerShard
			}
			cfg.DynamicSharding = s.DynamicSharding
			if s.MaxShards > 0 {
				cfg.MaxShards = s.MaxShards
			}
		}
		return meepo.New(sched, cfg), nil

	case "committee":
		cfg := committee.DefaultConfig()
		cfg.Net = pb.Net.toConfig()
		if s := pb.Committee; s != nil {
			if s.Validators > 0 {
				cfg.Validators = s.Validators
			}
			if s.BlockIntervalMs > 0 {
				cfg.BlockInterval = time.Duration(s.BlockIntervalMs * float64(time.Millisecond))
			}
			if s.RoundTimeoutMs > 0 {
				cfg.RoundTimeout = time.Duration(s.RoundTimeoutMs * float64(time.Millisecond))
			}
			if s.ExecCostPerTxUs > 0 {
				cfg.ExecCostPerTx = time.Duration(s.ExecCostPerTxUs * float64(time.Microsecond))
			}
			if s.PendingCap > 0 {
				cfg.PendingCap = s.PendingCap
			}
		}
		return committee.New(sched, cfg), nil

	default:
		return nil, fmt.Errorf("deploy: unknown chain kind %q", pb.Kind)
	}
}

// Kinds lists the supported chain kinds.
func Kinds() []string { return []string{"ethereum", "fabric", "neuchain", "meepo", "committee"} }
