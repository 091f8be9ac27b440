package main

import (
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"hammer/internal/chain"
	"hammer/internal/chains/committee"
	"hammer/internal/chains/ethereum"
	"hammer/internal/chains/fabric"
	"hammer/internal/chains/meepo"
	"hammer/internal/chains/neuchain"
	"hammer/internal/chaos"
	"hammer/internal/eventsim"
)

// small shrinks a workload to a few virtual seconds and a small population.
func small(w *workload) *workload {
	s := *w
	s.seconds = 3
	switch w.name {
	case "ioheavy-paged":
		s.population = 2000
	default:
		s.population = 300
	}
	return &s
}

func digests(t *testing.T, rep *repetition) map[string]string {
	t.Helper()
	for _, err := range rep.errs {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, pr := range rep.probes {
		if !pr.done {
			t.Fatalf("%s: no digest", pr.name)
		}
		out[pr.name] = hex.EncodeToString(pr.digest[:])
	}
	return out
}

// TestTracedRunsMatchUntraced shows that the layer wrappers leave every
// workload's outcome unchanged and that the traced ledger closes.
func TestTracedRunsMatchUntraced(t *testing.T) {
	for _, full := range workloads() {
		w := small(full)
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			plain, err := w.repeat(11, false, dir)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := w.repeat(11, true, dir)
			if err != nil {
				t.Fatal(err)
			}
			want, got := digests(t, plain), digests(t, traced)
			if len(want) == 0 {
				t.Fatal("workload ran no runs")
			}
			for name, d := range want {
				if got[name] != d {
					t.Errorf("%s: traced digest %s, untraced %s", name, got[name], d)
				}
			}
			l := traced.ledger()
			for _, p := range l.problems() {
				t.Errorf("ledger: %s", p)
			}
			if l.metrics["contract.invokes"] == 0 || l.metrics["core.events"] == 0 || l.metrics["chain.submits"] == 0 {
				t.Errorf("traced run recorded no layer activity: %v", l.metrics)
			}
			if w.name == "ioheavy-paged" && l.metrics["pagedstate.sets"] == 0 {
				t.Error("ioheavy run recorded no paged-store writes")
			}
		})
	}
}

// TestWrapChainKeepsOptionalSurfaces checks that a traced chain exposes
// exactly the optional interfaces its inner chain has, so digests and the
// chaos injector take the same paths through it.
func TestWrapChainKeepsOptionalSurfaces(t *testing.T) {
	surfaces := func(bc chain.Blockchain) [5]bool {
		_, s := bc.(strander)
		_, v := bc.(viewChanger)
		_, a := bc.(chain.AuditLogger)
		_, f := bc.(chaos.NodeFaulter)
		_, n := bc.(networkProvider)
		return [5]bool{s, v, a, f, n}
	}
	sched := eventsim.New()
	for name, bc := range map[string]chain.Blockchain{
		"neuchain":  neuchain.New(sched, neuchain.DefaultConfig()),
		"meepo":     meepo.New(sched, meepo.DefaultConfig()),
		"committee": committee.New(sched, committee.DefaultConfig()),
		"fabric":    fabric.New(sched, fabric.DefaultConfig()),
	} {
		w, err := newTracer().wrapChain(bc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := surfaces(w), surfaces(bc); got != want {
			t.Errorf("%s: wrapped surfaces %v, inner %v", name, got, want)
		}
	}
	if _, err := newTracer().wrapChain(ethereum.New(sched, ethereum.DefaultConfig())); err == nil {
		t.Error("ethereum has no network or stranded count, yet was wrapped")
	}

	// The forwarded methods must answer from the inner chain.
	inner := stubViewChain{stubChain{neuchain.New(sched, neuchain.DefaultConfig())}}
	inner.CrashNode("proxy")
	w, err := newTracer().wrapChain(inner)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.(strander).Stranded(); got != 3 {
		t.Errorf("Stranded() = %d through the wrapper, want 3", got)
	}
	if got := w.(viewChanger).ViewChanges(); got != 5 {
		t.Errorf("ViewChanges() = %d through the wrapper, want 5", got)
	}
	if f := w.(chaos.NodeFaulter); !f.NodeDown("proxy") || f.DownCount() != 1 {
		t.Error("the wrapper does not report the inner chain's crashed node")
	}
	if w.(networkProvider).Network() != inner.Network() {
		t.Error("the wrapper exposes another network than the inner chain's")
	}
}

type stubChain struct{ *neuchain.Chain }

func (stubChain) Stranded() int { return 3 }

type stubViewChain struct{ stubChain }

func (stubViewChain) ViewChanges() int { return 5 }

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tail(xs); v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90", v, pct)
	}
	if v, pct := tail(xs[:5]); v != 5 || pct != 100 {
		t.Errorf("tail of 1..5 = %v at p%v, want the maximum", v, pct)
	}
}

// TestListsMatchBenchmarkJSON keeps the workloads and the metric names and
// units the program prints in step with BENCHMARK.json.
func TestListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var ws, e2e, layers []named
	for _, w := range workloads() {
		ws = append(ws, named{Name: w.name})
	}
	for _, m := range e2eUnits {
		e2e = append(e2e, named{m.name, m.unit})
	}
	for _, m := range perLayerUnits {
		layers = append(layers, named{m.name, m.unit})
	}
	for _, c := range []struct {
		key       string
		got, want []named
	}{{"workloads", ws, b.Workloads}, {"end_to_end", e2e, b.EndToEnd}, {"per_layer", layers, b.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: program has %d entries, BENCHMARK.json %d", c.key, len(c.got), len(c.want))
			continue
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: program %+v, BENCHMARK.json %+v", c.key, i, c.got[i], c.want[i])
			}
		}
	}
}
