// Package smallbank implements the SmallBank benchmark contract the paper
// uses as its workload (§V, "Workload"): a basic banking system in which
// every customer holds a checking and a savings account, with deposit,
// withdraw, transfer and amalgamate operations drawn uniformly.
package smallbank

import (
	"fmt"
	"strconv"

	"hammer/internal/chain"
)

// Operation names accepted by Invoke.
const (
	OpCreate     = "create"     // create(account, checking, savings)
	OpDeposit    = "deposit"    // deposit(account, amount) → checking
	OpWithdraw   = "withdraw"   // withdraw(account, amount) ← checking
	OpTransfer   = "transfer"   // transfer(from, to, amount) checking→checking
	OpAmalgamate = "amalgamate" // amalgamate(from, to): move all of from's funds to to's checking
	OpQuery      = "query"      // query(account) → no writes
)

// Ops lists the four benchmark operations drawn uniformly by the workload
// generator (OpCreate and OpQuery are setup/read helpers).
var Ops = []string{OpDeposit, OpWithdraw, OpTransfer, OpAmalgamate}

// ContractName is the name under which the contract deploys.
const ContractName = "smallbank"

// Contract is the SmallBank chaincode. The zero value is ready to use.
type Contract struct{}

var _ chain.Contract = Contract{}

// Name implements chain.Contract.
func (Contract) Name() string { return ContractName }

// Gas implements chain.Contract. Costs approximate relative execution
// weight: transfers and amalgamations touch two customers.
func (Contract) Gas(op string) uint64 {
	switch op {
	case OpTransfer, OpAmalgamate:
		return 40000
	case OpDeposit, OpWithdraw, OpCreate:
		return 21000
	case OpQuery:
		return 5000
	default:
		return 21000
	}
}

func checkingKey(account string) string { return "c:" + account }
func savingsKey(account string) string  { return "s:" + account }

func readBalance(ctx chain.TxContext, key string) (int64, error) {
	raw, ok := ctx.Get(key)
	if !ok {
		return 0, fmt.Errorf("smallbank: account record %q does not exist", key)
	}
	v, err := strconv.ParseInt(string(raw), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("smallbank: corrupt balance at %q: %w", key, err)
	}
	return v, nil
}

func writeBalance(ctx chain.TxContext, key string, v int64) {
	ctx.Put(key, strconv.AppendInt(nil, v, 10))
}

// Invoke implements chain.Contract.
func (Contract) Invoke(ctx chain.TxContext, op string, args []string) error {
	switch op {
	case OpCreate:
		if len(args) != 3 {
			return fmt.Errorf("smallbank: create wants 3 args, got %d", len(args))
		}
		checking, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return fmt.Errorf("smallbank: create checking amount: %w", err)
		}
		savings, err := strconv.ParseInt(args[2], 10, 64)
		if err != nil {
			return fmt.Errorf("smallbank: create savings amount: %w", err)
		}
		writeBalance(ctx, checkingKey(args[0]), checking)
		writeBalance(ctx, savingsKey(args[0]), savings)
		return nil

	case OpDeposit:
		account, amount, err := accountAmount(op, args)
		if err != nil {
			return err
		}
		key := checkingKey(account)
		bal, err := readBalance(ctx, key)
		if err != nil {
			return err
		}
		writeBalance(ctx, key, bal+amount)
		return nil

	case OpWithdraw:
		account, amount, err := accountAmount(op, args)
		if err != nil {
			return err
		}
		key := checkingKey(account)
		bal, err := readBalance(ctx, key)
		if err != nil {
			return err
		}
		// Overdraft is permitted, following SmallBank's WriteCheck
		// semantics (and Blockbench's chaincode): balances may go
		// negative, keeping total funds conserved.
		writeBalance(ctx, key, bal-amount)
		return nil

	case OpTransfer:
		if len(args) != 3 {
			return fmt.Errorf("smallbank: transfer wants 3 args, got %d", len(args))
		}
		from, to := args[0], args[1]
		amount, err := strconv.ParseInt(args[2], 10, 64)
		if err != nil {
			return fmt.Errorf("smallbank: transfer amount: %w", err)
		}
		if amount < 0 {
			return fmt.Errorf("smallbank: negative transfer amount %d", amount)
		}
		if from == to {
			return fmt.Errorf("smallbank: transfer from %q to itself", from)
		}
		fromKey, toKey := checkingKey(from), checkingKey(to)
		fromBal, err := readBalance(ctx, fromKey)
		if err != nil {
			return err
		}
		toBal, err := readBalance(ctx, toKey)
		if err != nil {
			return err
		}
		writeBalance(ctx, fromKey, fromBal-amount)
		writeBalance(ctx, toKey, toBal+amount)
		return nil

	case OpAmalgamate:
		if len(args) != 2 {
			return fmt.Errorf("smallbank: amalgamate wants 2 args, got %d", len(args))
		}
		from, to := args[0], args[1]
		if from == to {
			return fmt.Errorf("smallbank: amalgamate %q with itself", from)
		}
		fromSavKey, fromChkKey, toChkKey := savingsKey(from), checkingKey(from), checkingKey(to)
		fromSav, err := readBalance(ctx, fromSavKey)
		if err != nil {
			return err
		}
		fromChk, err := readBalance(ctx, fromChkKey)
		if err != nil {
			return err
		}
		toChk, err := readBalance(ctx, toChkKey)
		if err != nil {
			return err
		}
		writeBalance(ctx, fromSavKey, 0)
		writeBalance(ctx, fromChkKey, 0)
		writeBalance(ctx, toChkKey, toChk+fromSav+fromChk)
		return nil

	case OpQuery:
		if len(args) != 1 {
			return fmt.Errorf("smallbank: query wants 1 arg, got %d", len(args))
		}
		if _, err := readBalance(ctx, checkingKey(args[0])); err != nil {
			return err
		}
		_, err := readBalance(ctx, savingsKey(args[0]))
		return err

	default:
		return fmt.Errorf("%w: %q", chain.ErrUnknownOp, op)
	}
}

func accountAmount(op string, args []string) (string, int64, error) {
	if len(args) != 2 {
		return "", 0, fmt.Errorf("smallbank: %s wants 2 args, got %d", op, len(args))
	}
	amount, err := strconv.ParseInt(args[1], 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("smallbank: %s amount: %w", op, err)
	}
	if amount < 0 {
		return "", 0, fmt.Errorf("smallbank: negative %s amount %d", op, amount)
	}
	return args[0], amount, nil
}

// AccountName formats the canonical name for account index i.
func AccountName(i int) string { return "acct" + strconv.Itoa(i) }

// TotalBalance sums checking+savings across accounts [0,n) in the given
// state; it is the conservation invariant checked by property tests
// (transfers and amalgamations preserve it).
func TotalBalance(get func(key string) ([]byte, bool), n int) (int64, error) {
	var total int64
	for i := 0; i < n; i++ {
		name := AccountName(i)
		for _, key := range []string{checkingKey(name), savingsKey(name)} {
			raw, ok := get(key)
			if !ok {
				return 0, fmt.Errorf("smallbank: missing record %q", key)
			}
			v, err := strconv.ParseInt(string(raw), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("smallbank: corrupt balance at %q: %w", key, err)
			}
			total += v
		}
	}
	return total, nil
}
