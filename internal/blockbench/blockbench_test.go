package blockbench

import (
	"fmt"
	"strings"
	"testing"

	"hammer/internal/chain"
)

func invoke(t *testing.T, st *chain.State, tx *chain.Transaction) *chain.Executor {
	t.Helper()
	ex := chain.NewExecutor(st)
	if err := (Contract{}).Invoke(ex, tx.Op, tx.Args); err != nil {
		t.Fatalf("%s%v: %v", tx.Op, tx.Args, err)
	}
	return ex
}

func TestContractOps(t *testing.T) {
	st := chain.NewState()
	st.Set(Key(0), []byte("alpha"), 1)
	st.Set(Key(1), []byte("beta"), 1)

	ex := invoke(t, st, &chain.Transaction{Op: OpWrite, Args: []string{Key(2), "gamma"}})
	if w := ex.RWSet().Writes; len(w) != 1 || string(w[0].Value) != "gamma" {
		t.Fatalf("write staged %v", w)
	}

	ex = invoke(t, st, &chain.Transaction{Op: OpRead, Args: []string{Key(0)}})
	if r := ex.RWSet().Reads; len(r) != 1 || !r[0].Exists {
		t.Fatalf("read recorded %v", r)
	}

	ex = invoke(t, st, &chain.Transaction{Op: OpScan, Args: []string{"0", "3", "agg:x"}})
	rw := ex.RWSet()
	if len(rw.Reads) != 3 {
		t.Fatalf("scan read %d keys, want 3", len(rw.Reads))
	}
	if len(rw.Writes) != 1 || rw.Writes[0].Key != "agg:x" {
		t.Fatalf("scan staged %v", rw.Writes)
	}

	ex = invoke(t, st, &chain.Transaction{Op: OpNothing})
	if rw := ex.RWSet(); len(rw.Reads)+len(rw.Writes) != 0 {
		t.Fatalf("nothing touched state: %+v", rw)
	}

	if err := (Contract{}).Invoke(chain.NewExecutor(st), "bogus", nil); err == nil {
		t.Fatal("unknown op accepted")
	}
}

// TestScanDeterministic pins the aggregate: same population, same checksum,
// and the checksum reacts to value changes.
func TestScanDeterministic(t *testing.T) {
	build := func(v1 string) string {
		st := chain.NewState()
		st.Set(Key(0), []byte(v1), 1)
		st.Set(Key(1), []byte("fixed"), 1)
		ex := invoke(t, st, &chain.Transaction{Op: OpScan, Args: []string{"0", "2", "agg:x"}})
		return string(ex.RWSet().Writes[0].Value)
	}
	if build("a") != build("a") {
		t.Fatal("scan checksum not deterministic")
	}
	if build("a") == build("b") {
		t.Fatal("scan checksum ignores values")
	}
}

func TestGeneratorPopulations(t *testing.T) {
	for _, w := range Workloads {
		p := DefaultProfile(w)
		p.Records = 50
		p.Seed = 7
		g, err := NewGenerator(p)
		if err != nil {
			t.Fatal(err)
		}
		setup := g.SetupTxs()
		if w == DoNothing {
			if len(setup) != 0 {
				t.Fatalf("%s: unexpected setup txs", w)
			}
		} else if len(setup) != 50 {
			t.Fatalf("%s: %d setup txs, want 50", w, len(setup))
		}
		for i := 0; i < 200; i++ {
			tx := g.Next("c0", "s0")
			if tx.Contract != ContractName || tx.Nonce == 0 {
				t.Fatalf("%s: malformed tx %+v", w, tx)
			}
			switch w {
			case IOHeavy:
				if tx.Op != OpWrite && tx.Op != OpRead {
					t.Fatalf("ioheavy drew %q", tx.Op)
				}
			case Analytics:
				if tx.Op != OpScan || !strings.HasPrefix(tx.Args[2], "agg:") {
					t.Fatalf("analytics drew %q %v", tx.Op, tx.Args)
				}
			case DoNothing:
				if tx.Op != OpNothing {
					t.Fatalf("donothing drew %q", tx.Op)
				}
			}
		}
	}
}

// TestGeneratorDeterministic pins same-seed reproducibility, which the
// mem-vs-paged identity comparisons rely on.
func TestGeneratorDeterministic(t *testing.T) {
	draw := func() []string {
		p := DefaultProfile(IOHeavy)
		p.Records = 100
		p.Seed = 11
		g, _ := NewGenerator(p)
		var out []string
		for i := 0; i < 50; i++ {
			tx := g.Next("c", "s")
			out = append(out, tx.Op+strings.Join(tx.Args, ","))
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestNewGeneratorRejectsBadProfiles(t *testing.T) {
	if _, err := NewGenerator(Profile{Workload: "ycsb", Records: 10}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := NewGenerator(Profile{Workload: IOHeavy}); err == nil {
		t.Fatal("zero records accepted")
	}
	if _, err := NewGenerator(Profile{Workload: IOHeavy, Records: 10, WriteFrac: 1.5}); err == nil {
		t.Fatal("bad write fraction accepted")
	}
}

func TestKeyMatchesFormat(t *testing.T) {
	for _, i := range []int{0, 9, 99_999_999, 100_000_000, -5} {
		if got, want := Key(i), fmt.Sprintf("io:%08d", i); got != want {
			t.Errorf("Key(%d) = %q, want %q", i, got, want)
		}
	}
}
