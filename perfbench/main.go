// Command perfbench is the repository benchmark. It runs named simulator
// workloads in one process, checks each run's outcome digest, and prints the
// end-to-end metrics (--trace 0) or the per-layer ledger of a traced run
// (--trace 1). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {"wall_s": {"value": 2.31, "unit": "s"}, ...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload smallbank-neuchain --seed 7 --seconds 35 --trace 0
//	bash perfbench/run.sh --workload all
//
// BENCHMARK.json names the workloads and metrics and says why each workload
// was chosen.
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 7, "seed the workload inputs are generated from")
	secs := fs.Float64("seconds", 35, "wall seconds to keep starting repetitions for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer ledger")
	stateDir := fs.String("state-dir", ".bench_build/state", "directory for paged-store files, removed afterwards")
	writeRef := fs.String("write-reference", "", "record the outcome digests of --reference-seeds into this file and exit")
	refSeeds := fs.String("reference-seeds", "7", "comma-separated seeds or lo-hi ranges for --write-reference")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads()
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		ws = []*workload{w}
	}
	if err := os.MkdirAll(*stateDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(*stateDir)

	if *writeRef != "" {
		seeds, err := parseSeeds(*refSeeds)
		if err == nil {
			err = writeReference(*writeRef, ws, seeds, *stateDir)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	refs, err := loadReferences()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		stamp(w, *seed, *trace)
		b := &bench{w: w, seed: *seed, budget: time.Duration(*secs * float64(time.Second)), stateDir: *stateDir, ref: refs.lookup(w, *seed)}
		var res result
		if *trace == 1 {
			res, err = b.traced()
		} else {
			res, err = b.endToEnd()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if len(ws) > 1 {
			printResult(res)
		}
		total.merge(w.name, res, len(ws) > 1)
	}
	printResult(total)
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) merge(name string, o result, prefix bool) {
	r.Correct = r.Correct && o.Correct
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	for k, v := range o.Metrics {
		if prefix {
			k = name + "." + k
		}
		r.Metrics[k] = v
	}
}

func printResult(r result) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of plain numbers always marshals
	}
	fmt.Println(string(b))
}

// stamp prints what the result depends on besides the code.
func stamp(w *workload, seed int64, trace int) {
	rev, modified := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+modified"
				}
			}
		}
	}
	fmt.Printf("stamp workload=%s seed=%d trace=%d params=[%s] go=%s nproc=%d gomaxprocs=%d workers=%d revision=%s%s\n",
		w.name, seed, trace, w.params(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), w.poolSize(), rev, modified)
}

// bench runs one workload for a wall-clock budget.
type bench struct {
	w        *workload
	seed     int64
	budget   time.Duration
	stateDir string
	ref      map[string]string // run name -> digest; nil without a reference

	attempted, failed int
	first             map[string]string // run name -> first repetition's digest
}

// check counts a repetition's runs. Every run's digest must equal the one
// the first repetition produced for it and, when the seed has a recorded
// reference, the reference too.
func (b *bench) check(rep *repetition, label string) {
	for _, err := range rep.errs {
		fmt.Printf("%s: run failed: %v\n", label, err)
	}
	if b.first == nil {
		b.first = map[string]string{}
	}
	for _, pr := range rep.probes {
		b.attempted++
		if !pr.done {
			b.failed++
			continue
		}
		got := hex.EncodeToString(pr.digest[:])
		if b.first[pr.name] == "" {
			b.first[pr.name] = got
		}
		switch {
		case got != b.first[pr.name]:
			b.failed++
			fmt.Printf("%s: %s digest %s differs from the first repetition's %s\n", label, pr.name, got, b.first[pr.name])
		case b.ref != nil && got != b.ref[pr.name]:
			b.failed++
			fmt.Printf("%s: %s digest %s differs from the reference %s\n", label, pr.name, got, b.ref[pr.name])
		}
	}
}

func (b *bench) announceReference() {
	if b.ref != nil {
		fmt.Printf("outcome check: digests against the recorded reference for seed %d\n", b.seed)
		return
	}
	fmt.Printf("outcome check: no recorded reference for seed %d; repetitions must agree with each other\n", b.seed)
}

var e2eUnits = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"sim_tx_per_s", "1/s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"allocs_per_tx", "count"},
	{"alloc_bytes_per_tx", "B"},
	{"gc_cpu_frac", "frac"},
}

// pacer starts iterations while one more, as long as the longest so far,
// still ends within the budget, so a run keeps to --seconds; the first
// iteration always starts.
type pacer struct {
	budget      time.Duration
	start, last time.Time
	longest     time.Duration
	n           int // iterations started
}

func (p *pacer) next() bool {
	now := time.Now()
	if p.n == 0 {
		p.start = now
	} else {
		p.longest = max(p.longest, now.Sub(p.last))
		if now.Sub(p.start)+p.longest > p.budget {
			return false
		}
	}
	p.last = now
	p.n++
	return true
}

// endToEnd starts untraced repetitions while the budget lasts and reports
// the median of each metric.
func (b *bench) endToEnd() (result, error) {
	b.announceReference()
	samples := map[string][]float64{}
	p := pacer{budget: b.budget}
	for p.next() {
		rep, err := b.w.repeat(b.seed, false, b.stateDir)
		if err != nil {
			return result{}, err
		}
		label := fmt.Sprintf("repetition %d", p.n)
		b.check(rep, label)
		if len(rep.errs) > 0 {
			continue
		}
		if rep.peakErr != nil {
			fmt.Printf("%s: cannot reset the peak RSS (%v); peak_rss_mb is the process peak\n", label, rep.peakErr)
		}
		m := rep.endToEnd()
		for k, v := range m {
			samples[k] = append(samples[k], v)
		}
		fmt.Printf("%s: wall %.3fs setup %.3fs %.0f sim tx/s cpu %.3fs peak %.1f MiB %.2f allocs/tx gc %.3f\n",
			label, m["wall_s"], m["setup_s"], m["sim_tx_per_s"], m["cpu_s"], m["peak_rss_mb"], m["allocs_per_tx"], m["gc_cpu_frac"])
	}

	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	fmt.Printf("%s: %d repetitions\n", b.w.name, len(samples["wall_s"]))
	for _, m := range e2eUnits {
		v := median(samples[m.name])
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Printf("  %-20s %14.6g %s\n", m.name, v, m.unit)
	}
	fmt.Printf("  %-20s %14.6g frac (%d of %d runs failed)\n", "fail_frac", ratio(float64(b.failed), float64(b.attempted)), b.failed, b.attempted)
	return res, nil
}

func parseSeeds(s string) ([]int64, error) {
	var seeds []int64
	for _, part := range strings.Split(s, ",") {
		var lo, hi int64
		if n, _ := fmt.Sscanf(part, "%d-%d", &lo, &hi); n == 2 {
			if hi < lo {
				return nil, fmt.Errorf("bad seed range %q", part)
			}
			for x := lo; x <= hi; x++ {
				seeds = append(seeds, x)
			}
			continue
		}
		if _, err := fmt.Sscanf(part, "%d", &lo); err != nil {
			return nil, fmt.Errorf("bad seed %q", part)
		}
		seeds = append(seeds, lo)
	}
	return seeds, nil
}
