// Package workload generates the transactions an evaluation sends to the
// system under test. A Profile (the paper's parsed JSON workload
// configuration) fixes the contract, account population, operation mix and
// access skew; a Generator materialises transactions; and a ControlSequence
// — the temporal heart of the paper — dictates how many transactions are
// injected in each time slice, so the evaluation follows realistic bursty
// and periodic load rather than a flat rate.
package workload

import (
	"fmt"
	"strconv"
	"time"

	"hammer/internal/chain"
	"hammer/internal/randx"
	"hammer/internal/smallbank"
)

// Profile configures a workload.
type Profile struct {
	// Name labels the workload in reports.
	Name string `json:"name"`
	// Contract is the target contract (default smallbank).
	Contract string `json:"contract"`
	// Accounts is the customer population (paper: 5,000 per shard).
	Accounts int `json:"accounts"`
	// InitialBalance seeds each account's checking and savings.
	InitialBalance int64 `json:"initial_balance"`
	// OpMix weights operations; empty means the paper's uniform
	// distribution over deposit/withdraw/transfer/amalgamate.
	OpMix map[string]float64 `json:"op_mix,omitempty"`
	// AccessSkew > 1 draws accounts from a Zipf distribution with that
	// exponent; 0 or 1 draws uniformly. Skew creates the hot-key conflicts
	// behind Fig 10's client-count cliff.
	AccessSkew float64 `json:"access_skew"`
	// MaxAmount bounds transfer/deposit amounts.
	MaxAmount int64 `json:"max_amount"`
	// Seed makes generation reproducible.
	Seed int64 `json:"seed"`
}

// DefaultProfile is the paper's SmallBank setup.
func DefaultProfile() Profile {
	return Profile{
		Name:           "smallbank-uniform",
		Contract:       smallbank.ContractName,
		Accounts:       10_000,
		InitialBalance: 1_000_000,
		MaxAmount:      100,
		Seed:           7,
	}
}

// Generator draws transactions from a profile.
type Generator struct {
	profile Profile
	rng     *randx.Rand
	zipf    *randx.Zipf
	ops     []string
	cum     []float64
	nonce   uint64
	slab    chain.TxSlab
}

// NewGenerator validates the profile and builds a generator.
func NewGenerator(p Profile) (*Generator, error) {
	if p.Contract == "" {
		p.Contract = smallbank.ContractName
	}
	if p.Accounts < 2 {
		return nil, fmt.Errorf("workload: need at least 2 accounts, got %d", p.Accounts)
	}
	if p.InitialBalance < 0 {
		return nil, fmt.Errorf("workload: negative initial balance %d", p.InitialBalance)
	}
	if p.MaxAmount <= 0 {
		p.MaxAmount = 100
	}
	g := &Generator{profile: p, rng: randx.New(p.Seed)}
	if p.AccessSkew > 1 {
		g.zipf = randx.NewZipf(g.rng, p.AccessSkew, uint64(p.Accounts))
	}
	mix := p.OpMix
	if len(mix) == 0 {
		mix = make(map[string]float64, len(smallbank.Ops))
		for _, op := range smallbank.Ops {
			mix[op] = 1
		}
	}
	var total float64
	for _, op := range smallbank.Ops {
		w, ok := mix[op]
		if !ok || w <= 0 {
			continue
		}
		total += w
		g.ops = append(g.ops, op)
		g.cum = append(g.cum, total)
	}
	if len(g.ops) == 0 {
		return nil, fmt.Errorf("workload: operation mix selects no operations")
	}
	for i := range g.cum {
		g.cum[i] /= total
	}
	return g, nil
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.profile }

// SetupTxs creates the account population. These run before measurement.
func (g *Generator) SetupTxs() []*chain.Transaction {
	txs := make([]*chain.Transaction, g.profile.Accounts)
	balance := strconv.FormatInt(g.profile.InitialBalance, 10)
	for i := range txs {
		name := smallbank.AccountName(i)
		txs[i] = g.slab.New(chain.Transaction{
			Contract: g.profile.Contract,
			Op:       smallbank.OpCreate,
			Args:     g.slab.Args(name, balance, balance),
			From:     name,
			Nonce:    g.nextNonce(),
		})
	}
	return txs
}

func (g *Generator) nextNonce() uint64 {
	g.nonce++
	return g.nonce
}

func (g *Generator) pickAccount() int {
	if g.zipf != nil {
		return int(g.zipf.Next())
	}
	return g.rng.Intn(g.profile.Accounts)
}

// pickTwoAccounts draws two distinct accounts.
func (g *Generator) pickTwoAccounts() (int, int) {
	a := g.pickAccount()
	b := g.pickAccount()
	for b == a {
		b = (b + 1 + g.rng.Intn(g.profile.Accounts-1)) % g.profile.Accounts
	}
	return a, b
}

// Next draws one benchmark transaction attributed to the given client and
// server (the paper's c_id and s_id).
func (g *Generator) Next(clientID, serverID string) *chain.Transaction {
	u := g.rng.Float64()
	op := g.ops[len(g.ops)-1]
	for i, c := range g.cum {
		if u <= c {
			op = g.ops[i]
			break
		}
	}
	tx := g.slab.New(chain.Transaction{
		ClientID: clientID,
		ServerID: serverID,
		Contract: g.profile.Contract,
		Op:       op,
		Nonce:    g.nextNonce(),
	})
	amount := 1 + g.rng.Int63n(g.profile.MaxAmount)
	switch op {
	case smallbank.OpDeposit, smallbank.OpWithdraw:
		a := smallbank.AccountName(g.pickAccount())
		tx.Args = g.slab.Args(a, strconv.FormatInt(amount, 10))
		tx.From = a
	case smallbank.OpTransfer:
		a, b := g.pickTwoAccounts()
		tx.Args = g.slab.Args(smallbank.AccountName(a), smallbank.AccountName(b), strconv.FormatInt(amount, 10))
		tx.From = tx.Args[0]
	case smallbank.OpAmalgamate:
		a, b := g.pickTwoAccounts()
		tx.Args = g.slab.Args(smallbank.AccountName(a), smallbank.AccountName(b))
		tx.From = tx.Args[0]
	}
	return tx
}

// Batch draws n transactions.
func (g *Generator) Batch(n int, clientID, serverID string) []*chain.Transaction {
	txs := make([]*chain.Transaction, n)
	for i := range txs {
		txs[i] = g.Next(clientID, serverID)
	}
	return txs
}

// ControlSequence dictates how many transactions are injected per time
// slice (paper §IV: "a time sequence to control the number of concurrent
// transactions within a time period").
type ControlSequence struct {
	// Interval is the slice width.
	Interval time.Duration `json:"interval"`
	// Counts is the number of transactions to inject in each slice.
	Counts []int `json:"counts"`
}

// Constant builds a flat sequence of rate tx/sec for the given duration —
// what the paper says existing frameworks are limited to.
func Constant(ratePerSecond float64, duration, interval time.Duration) ControlSequence {
	if interval <= 0 {
		interval = time.Second
	}
	slices := int(duration / interval)
	if slices < 1 {
		slices = 1
	}
	per := ratePerSecond * interval.Seconds()
	counts := make([]int, slices)
	carry := 0.0
	for i := range counts {
		carry += per
		counts[i] = int(carry)
		carry -= float64(counts[i])
	}
	return ControlSequence{Interval: interval, Counts: counts}
}

// FromSeries scales a predicted/learned series so that it sums to total
// transactions, preserving its shape. Negative points clamp to zero.
func FromSeries(series []float64, interval time.Duration, total int) ControlSequence {
	if interval <= 0 {
		interval = time.Second
	}
	var sum float64
	clamped := make([]float64, len(series))
	for i, v := range series {
		if v < 0 {
			v = 0
		}
		clamped[i] = v
		sum += v
	}
	counts := make([]int, len(series))
	if sum == 0 {
		return ControlSequence{Interval: interval, Counts: counts}
	}
	scale := float64(total) / sum
	carry := 0.0
	assigned := 0
	peak := 0
	for i, v := range clamped {
		carry += v * scale
		counts[i] = int(carry)
		carry -= float64(counts[i])
		assigned += counts[i]
		if counts[i] > counts[peak] {
			peak = i
		}
	}
	// Floating-point carry can leave the sequence a transaction short (or,
	// pathologically, long); settle the difference on the peak slice.
	if deficit := total - assigned; deficit != 0 && counts[peak]+deficit >= 0 {
		counts[peak] += deficit
	}
	return ControlSequence{Interval: interval, Counts: counts}
}

// Total sums the per-slice counts.
func (cs ControlSequence) Total() int {
	n := 0
	for _, c := range cs.Counts {
		n += c
	}
	return n
}

// Duration is the sequence's wall span.
func (cs ControlSequence) Duration() time.Duration {
	return time.Duration(len(cs.Counts)) * cs.Interval
}

// PeakRate reports the highest per-second injection rate.
func (cs ControlSequence) PeakRate() float64 {
	if cs.Interval <= 0 {
		return 0
	}
	max := 0
	for _, c := range cs.Counts {
		if c > max {
			max = c
		}
	}
	return float64(max) / cs.Interval.Seconds()
}
