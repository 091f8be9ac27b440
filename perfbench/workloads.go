package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"hammer/internal/blockbench"
	"hammer/internal/chain"
	"hammer/internal/chains/neuchain"
	"hammer/internal/core"
	"hammer/internal/eventsim"
	"hammer/internal/experiments"
	"hammer/internal/harness"
	"hammer/internal/netsim"
	"hammer/internal/smallbank"
	"hammer/internal/store/pagedstate"
	loadgen "hammer/internal/workload"
)

// workload is one named benchmark input. Its runs are harness runs, so a
// repetition goes through harness.Execute exactly as the experiments do.
type workload struct {
	name string
	// seconds is each run's virtual injection window; population the
	// SmallBank accounts or IOHeavy records created before it.
	seconds    int
	population int
	// workers bounds the harness pool; 0 means min(2, nproc).
	workers int
	plan    func(w *workload, seed int64, env *env) ([]harness.Run[struct{}], error)
}

// Fixed load shapes. The smallbank point is fig6's Neuchain deployment; the
// IOHeavy point is the blockbench experiment's Neuchain row on the paged
// store with a cache far smaller than the record set.
const (
	smallbankRate    = 12000 // tx/s offered, open loop on the virtual clock
	smallbankPending = 1400
	ioheavyRate      = 3000
	ioheavyCacheMB   = 4
	familiesShards   = 8
	familiesCross    = 0.2
)

func workloads() []*workload {
	return []*workload{
		{name: "smallbank-neuchain", seconds: 20, population: 5000, workers: 1, plan: planSmallbank},
		{name: "ioheavy-paged", seconds: 30, population: 200_000, workers: 1, plan: planIOHeavy},
		{name: "families-meepo8", seconds: 10, population: 5000, plan: planFamilies},
	}
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s, or all)", name, strings.Join(names, ", "))
}

func (w *workload) poolSize() int {
	if w.workers > 0 {
		return w.workers
	}
	return min(2, runtime.NumCPU())
}

// params describes everything that decides the workload's outcome; a
// reference digest is valid only for the params it was recorded with.
func (w *workload) params() string {
	switch w.name {
	case "smallbank-neuchain":
		return fmt.Sprintf("seconds=%d accounts=%d rate=%d pending_cap=%d clients=8 sign=off state=mem",
			w.seconds, w.population, smallbankRate, smallbankPending)
	case "ioheavy-paged":
		return fmt.Sprintf("seconds=%d records=%d rate=%d write_frac=0.5 cache_mb=%d clients=8 sign=off state=paged",
			w.seconds, w.population, ioheavyRate, ioheavyCacheMB)
	default:
		return fmt.Sprintf("seconds=%d accounts=%d shards=%d cross=%.2f scenarios=none,crash,partition",
			w.seconds, w.population, familiesShards, familiesCross)
	}
}

// env carries what one repetition's runs share.
type env struct {
	traced   bool
	stateDir string
	probes   []*probe
	closers  []func() error
}

func (e *env) newProbe(name string) *probe {
	pr := &probe{name: name}
	if e.traced {
		pr.tr = newTracer()
	}
	e.probes = append(e.probes, pr)
	return pr
}

// probe observes one harness run: when its phases begin, what it submitted,
// the digest of its outcome and, in a traced run, its spans.
type probe struct {
	name string
	tr   *tracer

	buildStart, measureStart, measureEnd, end time.Time

	submitted, retried, timedOut, faults int
	prep                                 time.Duration
	digest                               [32]byte
	done                                 bool

	net                  *netsim.Network
	netStart, netEnd     netStats
	store                *pagedstate.Store
	storeStart, storeEnd pagedstate.Stats
}

type netStats struct {
	msgs    int
	bytes   int64
	dropped int
}

func (pr *probe) snapshot() (netStats, pagedstate.Stats) {
	var ns netStats
	if pr.net != nil {
		ns.msgs, ns.bytes = pr.net.Stats()
		ns.dropped = pr.net.Dropped()
	}
	var ss pagedstate.Stats
	if pr.store != nil {
		ss = pr.store.Stats()
	}
	return ns, ss
}

// instrument wraps a harness run so that its probe sees the phase
// boundaries and the outcome. With a tracer it also hands core.New a
// traced scheduler, chain, contract and transaction source.
func instrument[T any](r harness.Run[T], pr *probe, faults func(T) int) harness.Run[struct{}] {
	return harness.Run[struct{}]{
		Name: r.Name,
		Seed: r.Seed,
		Build: func(seed int64) (eventsim.Sched, chain.Blockchain, core.Config, error) {
			pr.buildStart = time.Now()
			sched, bc, cfg, err := r.Build(seed)
			if err != nil {
				return nil, nil, core.Config{}, err
			}
			if np, ok := bc.(networkProvider); ok {
				pr.net = np.Network()
			}
			arm := cfg.OnMeasureStart
			cfg.OnMeasureStart = func(start time.Duration) {
				pr.measureStart = time.Now()
				pr.netStart, pr.storeStart = pr.snapshot()
				if pr.tr != nil {
					pr.tr.measure()
				}
				if arm != nil {
					arm(start)
				}
			}
			t := pr.tr
			if t == nil {
				return sched, bc, cfg, nil
			}
			if cfg.Source == nil || cfg.Contract == nil {
				return nil, nil, core.Config{}, fmt.Errorf("perfbench: traced run %s needs an explicit Source and Contract", r.Name)
			}
			cfg.Source = &tracedSource{TxSource: cfg.Source, t: t}
			cfg.Contract = &tracedContract{Contract: cfg.Contract, t: t}
			wbc, err := t.wrapChain(bc)
			if err != nil {
				return nil, nil, core.Config{}, err
			}
			return t.wrapSched(sched, layerCore), wbc, cfg, nil
		},
		Digest: func(res *core.Result, bc chain.Blockchain) (struct{}, error) {
			pr.measureEnd = time.Now()
			pr.netEnd, pr.storeEnd = pr.snapshot()
			row, err := r.Digest(res, bc)
			if pr.tr != nil {
				pr.tr.end() // the report span the traced chain's Stop opened
				pr.tr.begin(layerDigest)
			}
			if err == nil {
				pr.submitted = res.Submitted
				pr.retried = res.Retried
				pr.timedOut = res.Report.TimedOut
				pr.prep = res.PrepDuration
				if faults != nil {
					pr.faults = faults(row)
				}
				pr.digest = outcomeDigest(res, fmt.Sprintf("%+v", row))
				pr.done = true
			}
			if pr.tr != nil {
				pr.tr.end()
			}
			pr.end = time.Now()
			return struct{}{}, err
		},
	}
}

// outcomeDigest hashes what a run returns: every record in order (ID,
// status, start and end virtual times), the submitted, rejected, retried
// and committed counts, and the experiment's own result row.
func outcomeDigest(res *core.Result, row string) [32]byte {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(len(res.Records)))
	for i := range res.Records {
		r := &res.Records[i]
		h.Write(r.ID[:])
		put(int64(r.Status))
		put(int64(r.StartTime))
		put(int64(r.EndTime))
	}
	put(int64(res.Submitted))
	put(int64(res.Rejected))
	put(int64(res.Retried))
	put(int64(res.Report.Committed))
	h.Write([]byte(row))
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

func planSmallbank(w *workload, seed int64, e *env) ([]harness.Run[struct{}], error) {
	pr := e.newProbe(w.name)
	run := harness.Run[struct{}]{
		Name: w.name,
		Seed: seed,
		Build: func(seed int64) (eventsim.Sched, chain.Blockchain, core.Config, error) {
			sched := eventsim.New()
			ccfg := neuchain.DefaultConfig()
			ccfg.PendingCap = smallbankPending
			bc := neuchain.New(pr.tr.wrapChainSched(sched), ccfg)

			prof := loadgen.DefaultProfile()
			prof.Accounts = w.population
			prof.Seed = seed
			gen, err := loadgen.NewGenerator(prof)
			if err != nil {
				return nil, nil, core.Config{}, err
			}
			cfg := engineConfig(seed, smallbankRate, w.seconds)
			cfg.Source = gen
			cfg.Contract = smallbank.Contract{}
			return sched, bc, cfg, nil
		},
		Digest: noRow,
	}
	return []harness.Run[struct{}]{instrument(run, pr, nil)}, nil
}

func planIOHeavy(w *workload, seed int64, e *env) ([]harness.Run[struct{}], error) {
	pr := e.newProbe(w.name)
	run := harness.Run[struct{}]{
		Name: w.name,
		Seed: seed,
		Build: func(seed int64) (eventsim.Sched, chain.Blockchain, core.Config, error) {
			dir, err := os.MkdirTemp(e.stateDir, "pagedstate-")
			if err != nil {
				return nil, nil, core.Config{}, fmt.Errorf("perfbench: state dir: %w", err)
			}
			st, err := pagedstate.Open(pagedstate.Config{
				Dir:        dir,
				CacheBytes: ioheavyCacheMB << 20,
				// The experiments size the store for 4x the population.
				ExpectedKeys: 4 * w.population,
			})
			if err != nil {
				return nil, nil, core.Config{}, errors.Join(err, os.RemoveAll(dir))
			}
			e.closers = append(e.closers, func() error { return errors.Join(st.Close(), os.RemoveAll(dir)) })
			pr.store = st

			sched := eventsim.New()
			ccfg := neuchain.DefaultConfig()
			state := chain.NewStateOn(pr.tr.wrapBackend(st))
			ccfg.State = func() *chain.State { return state }
			bc := neuchain.New(pr.tr.wrapChainSched(sched), ccfg)

			prof := blockbench.DefaultProfile(blockbench.IOHeavy)
			prof.Records = w.population
			prof.Seed = seed
			gen, err := blockbench.NewGenerator(prof)
			if err != nil {
				return nil, nil, core.Config{}, err
			}
			cfg := engineConfig(seed, ioheavyRate, w.seconds)
			cfg.Source = gen
			cfg.Contract = blockbench.Contract{}
			return sched, bc, cfg, nil
		},
		Digest: noRow,
	}
	return []harness.Run[struct{}]{instrument(run, pr, nil)}, nil
}

// planFamilies takes the meepo-8 points of the real families sweep. Their
// chains are built inside the experiment on an unwrapped scheduler, so the
// traced run cannot split chain callbacks from the event loop there.
func planFamilies(w *workload, seed int64, e *env) ([]harness.Run[struct{}], error) {
	opts := experiments.Options{
		Seed:           seed,
		Accounts:       w.population,
		MeasureSeconds: w.seconds,
		FamilyShards:   []int{familiesShards},
		CrossShardRate: familiesCross,
		Workers:        w.poolSize(),
	}
	prefix := fmt.Sprintf("families/meepo-%d/", familiesShards)
	var runs []harness.Run[struct{}]
	for _, r := range experiments.FamiliesRuns(opts) {
		if !strings.HasPrefix(r.Name, prefix) {
			continue
		}
		runs = append(runs, instrument(r, e.newProbe(r.Name), func(row experiments.FamilyResult) int { return row.FaultEvents }))
	}
	if len(runs) != 3 {
		return nil, fmt.Errorf("perfbench: families sweep has %d %s* runs, want 3", len(runs), prefix)
	}
	return runs, nil
}

// engineConfig is the engine set-up both Neuchain workloads share with the
// fig6 and blockbench experiments.
func engineConfig(seed int64, rate float64, secs int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Control = loadgen.Constant(rate, time.Duration(secs)*time.Second, time.Second)
	cfg.SignMode = core.SignOff
	cfg.Clients = 8
	cfg.SubmitCost = 100 * time.Microsecond
	return cfg
}

func noRow(*core.Result, chain.Blockchain) (struct{}, error) { return struct{}{}, nil }

// repetition is one complete execution of a workload.
type repetition struct {
	wall, cpu time.Duration
	rt        runtimeSample
	busy      float64
	// peakMiB is the repetition's resident-set high-water mark; when the
	// mark cannot be reset, peakErr says so and peakMiB is the process's.
	peakMiB float64
	peakErr error
	probes  []*probe
	errs    []error
}

// repeat plans and executes the workload once. Memory is returned to the
// OS and the peak-RSS mark reset first, so that every repetition starts
// from the heap a fresh process would have and reports its own peak.
func (w *workload) repeat(seed int64, traced bool, stateDir string) (rep *repetition, err error) {
	e := &env{traced: traced, stateDir: stateDir}
	defer func() {
		for _, c := range e.closers {
			if cerr := c(); cerr != nil && err == nil {
				rep, err = nil, fmt.Errorf("perfbench: release paged store: %w", cerr)
			}
		}
	}()
	runs, err := w.plan(w, seed, e)
	if err != nil {
		return nil, err
	}
	debug.FreeOSMemory()
	peakErr := resetPeakRSS()
	rt0 := readRuntime()
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	results := harness.Execute(context.Background(), runs, harness.Options{Workers: w.poolSize()})
	wall := time.Since(t0)
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	peak, err := peakRSS()
	if err != nil {
		return nil, err
	}
	rep = &repetition{wall: wall, cpu: cpu1 - cpu0, rt: readRuntime().sub(rt0), peakMiB: peak, peakErr: peakErr, probes: e.probes}
	var busy time.Duration
	for _, r := range results {
		busy += r.Elapsed
		if r.Err != nil {
			rep.errs = append(rep.errs, fmt.Errorf("%s: %w", r.Name, r.Err))
		}
	}
	rep.busy = busy.Seconds() / (float64(w.poolSize()) * wall.Seconds())
	return rep, nil
}

// endToEnd computes the repetition's user-visible metrics. Set-up and
// measured-phase times are summed over the runs of a sweep.
func (rep *repetition) endToEnd() map[string]float64 {
	var setup, measured time.Duration
	submitted := 0
	for _, pr := range rep.probes {
		setup += pr.measureStart.Sub(pr.buildStart)
		measured += pr.measureEnd.Sub(pr.measureStart)
		submitted += pr.submitted
	}
	return map[string]float64{
		"wall_s":             rep.wall.Seconds(),
		"setup_s":            setup.Seconds(),
		"sim_tx_per_s":       ratio(float64(submitted), measured.Seconds()),
		"cpu_s":              rep.cpu.Seconds(),
		"peak_rss_mb":        rep.peakMiB,
		"allocs_per_tx":      ratio(float64(rep.rt.allocs), float64(submitted)),
		"alloc_bytes_per_tx": ratio(float64(rep.rt.allocBytes), float64(submitted)),
		"gc_cpu_frac":        ratio(rep.rt.gcCPU, rep.rt.totalCPU),
	}
}
