// Package blockbench implements the BLOCKBENCH micro-workloads the paper
// cites as prior art (Dinh et al., SIGMOD'17): IOHeavy exercises raw
// key-value reads and writes against the ledger state, Analytics scans key
// ranges and aggregates them, and DoNothing measures the consensus floor
// with transactions that touch no state at all. Together with SmallBank and
// YCSB they make the storage engine, not the workload, the variable — which
// is what the paged-state experiments compare.
package blockbench

import (
	"fmt"
	"strconv"

	"hammer/internal/chain"
	"hammer/internal/randx"
)

// Operation names accepted by Invoke.
const (
	OpWrite   = "write"   // write(key, value)
	OpRead    = "read"    // read(key) → no writes
	OpScan    = "scan"    // scan(startIdx, count, resultKey): aggregate a key range
	OpNothing = "nothing" // nothing(): consensus floor, no state access
)

// ContractName is the name under which the contract deploys.
const ContractName = "blockbench"

// Workload names, mirroring the BLOCKBENCH suite.
const (
	IOHeavy   = "ioheavy"
	Analytics = "analytics"
	DoNothing = "donothing"
)

// Workloads lists the three micro-workloads in report order.
var Workloads = []string{IOHeavy, Analytics, DoNothing}

// Key is the state key of record i, "io:%08d"; the population is a dense
// array of these, so scans address ranges by index.
func Key(i int) string {
	if i < 0 {
		return fmt.Sprintf("io:%08d", i)
	}
	var buf [32]byte
	copy(buf[:], "io:00000000")
	d := strconv.AppendInt(buf[11:11], int64(i), 10)
	end := max(11, 3+len(d))
	copy(buf[end-len(d):], d)
	return string(buf[:end])
}

// Contract is the BLOCKBENCH chaincode. The zero value is ready to use.
type Contract struct{}

var _ chain.Contract = Contract{}

// Name implements chain.Contract.
func (Contract) Name() string { return ContractName }

// Gas implements chain.Contract. Scans are priced as range reads; nothing
// still pays the base transaction cost.
func (Contract) Gas(op string) uint64 {
	switch op {
	case OpWrite:
		return 21000
	case OpRead:
		return 6000
	case OpScan:
		return 120000
	case OpNothing:
		return 1000
	default:
		return 21000
	}
}

// Invoke implements chain.Contract.
func (Contract) Invoke(ctx chain.TxContext, op string, args []string) error {
	switch op {
	case OpWrite:
		if len(args) != 2 {
			return fmt.Errorf("blockbench: write wants 2 args, got %d", len(args))
		}
		ctx.Put(args[0], []byte(args[1]))
		return nil
	case OpRead:
		if len(args) != 1 {
			return fmt.Errorf("blockbench: read wants 1 arg, got %d", len(args))
		}
		ctx.Get(args[0])
		return nil
	case OpScan:
		if len(args) != 3 {
			return fmt.Errorf("blockbench: scan wants 3 args, got %d", len(args))
		}
		start, err := strconv.Atoi(args[0])
		if err != nil {
			return fmt.Errorf("blockbench: scan start: %w", err)
		}
		count, err := strconv.Atoi(args[1])
		if err != nil {
			return fmt.Errorf("blockbench: scan count: %w", err)
		}
		if count < 0 {
			return fmt.Errorf("blockbench: negative scan count %d", count)
		}
		// Aggregate the range with a rolling FNV-style checksum over the
		// values read; absent keys contribute a fixed miss marker so the
		// result is deterministic for any population.
		var sum uint64 = 14695981039346656037
		for i := start; i < start+count; i++ {
			v, ok := ctx.Get(Key(i))
			if !ok {
				sum = (sum ^ 0xff) * 1099511628211
				continue
			}
			for _, b := range v {
				sum = (sum ^ uint64(b)) * 1099511628211
			}
		}
		ctx.Put(args[2], []byte(strconv.FormatUint(sum, 16)))
		return nil
	case OpNothing:
		return nil
	default:
		return fmt.Errorf("blockbench: %q: %w", op, chain.ErrUnknownOp)
	}
}

// Profile configures a generator.
type Profile struct {
	// Workload picks the micro-benchmark: ioheavy, analytics or donothing.
	Workload string
	// Records is the populated key count (the setup phase writes them all).
	Records int
	// ValueBytes sizes each record's value.
	ValueBytes int
	// WriteFrac is the IOHeavy write fraction; the remainder are reads.
	WriteFrac float64
	// ScanLen is the Analytics range length per transaction.
	ScanLen int
	// Seed makes generation reproducible.
	Seed int64
}

// DefaultProfile returns the BLOCKBENCH defaults for a workload.
func DefaultProfile(workload string) Profile {
	return Profile{
		Workload:   workload,
		Records:    10_000,
		ValueBytes: 64,
		WriteFrac:  0.5,
		ScanLen:    100,
	}
}

// Generator draws transactions for one micro-workload. It implements the
// engine's TxSource contract (SetupTxs + Next).
type Generator struct {
	p     Profile
	rng   *randx.Rand
	value string
	nonce uint64
	slab  chain.TxSlab
}

// NewGenerator validates the profile and builds a generator.
func NewGenerator(p Profile) (*Generator, error) {
	switch p.Workload {
	case IOHeavy, Analytics, DoNothing:
	default:
		return nil, fmt.Errorf("blockbench: unknown workload %q (want %v)", p.Workload, Workloads)
	}
	if p.Records < 1 {
		return nil, fmt.Errorf("blockbench: need at least 1 record, got %d", p.Records)
	}
	if p.ValueBytes < 1 {
		p.ValueBytes = DefaultProfile(p.Workload).ValueBytes
	}
	if p.WriteFrac < 0 || p.WriteFrac > 1 {
		return nil, fmt.Errorf("blockbench: write fraction %v outside [0,1]", p.WriteFrac)
	}
	if p.ScanLen < 1 {
		p.ScanLen = DefaultProfile(p.Workload).ScanLen
	}
	if p.ScanLen > p.Records {
		p.ScanLen = p.Records
	}
	return &Generator{p: p, rng: randx.New(p.Seed), value: pattern(p.ValueBytes)}, nil
}

// pattern builds a fixed printable value of n bytes; writes vary only a
// nonce prefix so value sizes stay constant across the run.
func pattern(n int) string {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = 'a' + byte(i%26)
	}
	return string(buf)
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.p }

func (g *Generator) nextNonce() uint64 {
	g.nonce++
	return g.nonce
}

// valueFor stamps the write nonce into the fixed pattern so every write is
// distinguishable but identically sized.
func (g *Generator) valueFor(nonce uint64) string {
	var buf [16]byte
	stamp := strconv.AppendUint(buf[:0], nonce, 16)
	if len(stamp) >= len(g.value) {
		return string(stamp[:len(g.value)])
	}
	return string(stamp) + g.value[len(stamp):]
}

// SetupTxs populates the record array. DoNothing needs no state and returns
// nothing.
func (g *Generator) SetupTxs() []*chain.Transaction {
	if g.p.Workload == DoNothing {
		return nil
	}
	txs := make([]*chain.Transaction, g.p.Records)
	for i := range txs {
		key := Key(i)
		txs[i] = g.slab.New(chain.Transaction{
			Contract: ContractName,
			Op:       OpWrite,
			Args:     g.slab.Args(key, g.valueFor(uint64(i))),
			From:     owner(key),
			Nonce:    g.nextNonce(),
		})
	}
	return txs
}

// owner attributes a transaction to the record's index (the digits of its
// Key) — the routing account sharded chains hash.
func owner(key string) string { return key[len("io:"):] }

// Next draws one benchmark transaction attributed to a client/server.
func (g *Generator) Next(clientID, serverID string) *chain.Transaction {
	tx := g.slab.New(chain.Transaction{
		ClientID: clientID,
		ServerID: serverID,
		Contract: ContractName,
		Nonce:    g.nextNonce(),
	})
	switch g.p.Workload {
	case IOHeavy:
		key := Key(g.rng.Intn(g.p.Records))
		if g.rng.Float64() < g.p.WriteFrac {
			tx.Op = OpWrite
			tx.Args = g.slab.Args(key, g.valueFor(tx.Nonce))
		} else {
			tx.Op = OpRead
			tx.Args = g.slab.Args(key)
		}
		tx.From = owner(key)
	case Analytics:
		start := g.rng.Intn(g.p.Records - g.p.ScanLen + 1)
		tx.Op = OpScan
		tx.Args = g.slab.Args(
			strconv.Itoa(start),
			strconv.Itoa(g.p.ScanLen),
			fmt.Sprintf("agg:%016x", tx.Nonce),
		)
		tx.From = owner(Key(start))
	case DoNothing:
		tx.Op = OpNothing
		tx.From = owner(Key(int(tx.Nonce) % g.p.Records))
	}
	return tx
}
