package main

import (
	"fmt"
	"math"
	"time"
)

// ledgerTolerance bounds the share of the summed run wall time that the
// traced spans and the set-up time may leave unexplained. What they miss is
// the engine's loop between scheduler steps.
const ledgerTolerance = 0.03

// perLayerUnits lists the per-layer metrics in report order.
var perLayerUnits = []struct{ name, unit string }{
	{"workload.next_s", "s"},
	{"workload.setup_txs_s", "s"},
	{"sign.prep_s", "s"},
	{"core.cb_s", "s"},
	{"core.report_s", "s"},
	{"core.events", "count"},
	{"core.retried", "count"},
	{"core.timed_out", "count"},
	{"chain.submit_s", "s"},
	{"chain.submits", "count"},
	{"chain.admit_frac", "frac"},
	{"chain.blockat_s", "s"},
	{"chain.blocks", "count"},
	{"chain.txs_per_block", "count"},
	{"chains.cb_s", "s"},
	{"chains.events", "count"},
	{"contract.invoke_s", "s"},
	{"contract.invokes", "count"},
	{"contract.abort_frac", "frac"},
	{"contract.gets", "count"},
	{"contract.puts", "count"},
	{"pagedstate.gets", "count"},
	{"pagedstate.sets", "count"},
	{"pagedstate.hit_rate", "frac"},
	{"pagedstate.evictions", "count"},
	{"pagedstate.wal_flushes", "count"},
	{"pagedstate.wal_mb", "MiB"},
	{"pagedstate.checkpoints", "count"},
	{"netsim.msgs", "count"},
	{"netsim.mb", "MiB"},
	{"netsim.dropped", "count"},
	{"eventsim.self_s", "s"},
	{"eventsim.step_ms_p50", "ms"},
	{"eventsim.step_ms_tail", "ms"},
	{"chaos.faults", "count"},
	{"harness.busy_frac", "frac"},
	{"gc.cycles", "count"},
	{"trace.overhead", "ratio"},
	{"ledger.residual_frac", "frac"},
}

// ledger sums the spans and counters of a traced repetition's runs.
type ledger struct {
	runWall, setup, measured time.Duration
	self                     [numPhases][numLayers]time.Duration
	calls                    [numPhases][numLayers]int64
	prep                     time.Duration
	overruns                 int
	// chainSplit is false when some run's chain callbacks could not be
	// told apart from the event loop.
	chainSplit bool
	steps      []float64 // ms
	metrics    map[string]float64
}

func (rep *repetition) ledger() *ledger {
	l := &ledger{chainSplit: true, metrics: map[string]float64{}}
	var (
		admitted, blocks, blockTxs, aborts, gets, puts        int64
		retried, timedOut, faults                             int
		net                                                   netStats
		storeGets, storeSets, evictions, flushes, checkpoints int64
		hits, misses, walBytes                                int64
	)
	for _, pr := range rep.probes {
		t := pr.tr
		l.runWall += pr.end.Sub(pr.buildStart)
		l.setup += pr.measureStart.Sub(pr.buildStart)
		l.measured += pr.end.Sub(pr.measureStart)
		l.prep += pr.prep
		for ph := range t.self {
			for ly := range t.self[ph] {
				l.self[ph][ly] += t.self[ph][ly]
				l.calls[ph][ly] += t.calls[ph][ly]
			}
		}
		l.overruns += t.overruns
		l.chainSplit = l.chainSplit && t.chainSched
		for _, d := range t.steps {
			l.steps = append(l.steps, float64(d)/float64(time.Millisecond))
		}
		admitted += t.admitted
		blocks += t.blocks
		blockTxs += t.blockTxs
		aborts += t.aborts
		gets += t.gets
		puts += t.puts
		retried += pr.retried
		timedOut += pr.timedOut
		faults += pr.faults
		net.msgs += pr.netEnd.msgs - pr.netStart.msgs
		net.bytes += pr.netEnd.bytes - pr.netStart.bytes
		net.dropped += pr.netEnd.dropped - pr.netStart.dropped
		s0, s1 := pr.storeStart, pr.storeEnd
		storeGets += s1.Gets - s0.Gets
		storeSets += s1.Sets - s0.Sets
		hits += s1.CacheHits - s0.CacheHits
		misses += s1.CacheMisses - s0.CacheMisses
		evictions += s1.Evictions - s0.Evictions
		flushes += s1.WALFlushes - s0.WALFlushes
		checkpoints += s1.Checkpoints - s0.Checkpoints
		walBytes += s1.WALBytes
	}
	m := l.self[phaseMeasure]
	c := l.calls[phaseMeasure]
	loop := m[layerEventsim].Seconds()
	chains := m[layerChains].Seconds()
	if !l.chainSplit {
		chains = loop
	}
	mb := float64(1 << 20)
	p50 := median(l.steps)
	tailMS, _ := tail(l.steps)
	l.metrics = map[string]float64{
		"workload.next_s":        (l.self[phaseSetup][layerNext] + m[layerNext]).Seconds(),
		"workload.setup_txs_s":   (l.self[phaseSetup][layerSetupTxs] + m[layerSetupTxs]).Seconds(),
		"sign.prep_s":            l.prep.Seconds(),
		"core.cb_s":              m[layerCore].Seconds(),
		"core.report_s":          m[layerReport].Seconds(),
		"core.events":            float64(c[layerCore]),
		"core.retried":           float64(retried),
		"core.timed_out":         float64(timedOut),
		"chain.submit_s":         m[layerChainSubmit].Seconds(),
		"chain.submits":          float64(c[layerChainSubmit]),
		"chain.admit_frac":       ratio(float64(admitted), float64(c[layerChainSubmit])),
		"chain.blockat_s":        m[layerChainBlockAt].Seconds(),
		"chain.blocks":           float64(blocks),
		"chain.txs_per_block":    ratio(float64(blockTxs), float64(blocks)),
		"chains.cb_s":            chains,
		"chains.events":          float64(c[layerChains]),
		"contract.invoke_s":      m[layerContract].Seconds(),
		"contract.invokes":       float64(c[layerContract]),
		"contract.abort_frac":    ratio(float64(aborts), float64(c[layerContract])),
		"contract.gets":          float64(gets),
		"contract.puts":          float64(puts),
		"pagedstate.gets":        float64(storeGets),
		"pagedstate.sets":        float64(storeSets),
		"pagedstate.hit_rate":    ratio(float64(hits), float64(hits+misses)),
		"pagedstate.evictions":   float64(evictions),
		"pagedstate.wal_flushes": float64(flushes),
		"pagedstate.wal_mb":      float64(walBytes) / mb,
		"pagedstate.checkpoints": float64(checkpoints),
		"netsim.msgs":            float64(net.msgs),
		"netsim.mb":              float64(net.bytes) / mb,
		"netsim.dropped":         float64(net.dropped),
		"eventsim.self_s":        loop,
		"eventsim.step_ms_p50":   p50,
		"eventsim.step_ms_tail":  tailMS,
		"chaos.faults":           float64(faults),
		"harness.busy_frac":      rep.busy,
		"gc.cycles":              float64(rep.rt.gcCycles),
		"ledger.residual_frac":   ratio(math.Abs(l.residual().Seconds()), l.runWall.Seconds()),
	}
	return l
}

// attributed is the measured-phase self time of every layer; the event
// loop and unsplit chain callbacks are one entry, so nothing counts twice.
func (l *ledger) attributed() time.Duration {
	var sum time.Duration
	for _, d := range l.self[phaseMeasure] {
		sum += d
	}
	return sum
}

// residual is the run wall time that neither set-up nor a measured span
// explains.
func (l *ledger) residual() time.Duration {
	return l.runWall - l.setup - l.attributed()
}

// problems lists the ways the ledger fails to close.
func (l *ledger) problems() []string {
	var out []string
	if r := l.residual(); math.Abs(r.Seconds()) > ledgerTolerance*l.runWall.Seconds() {
		out = append(out, fmt.Sprintf("set-up plus layer self times miss the run wall time by %v (%.1f%%, tolerance %.0f%%)",
			r, 100*r.Seconds()/l.runWall.Seconds(), 100*ledgerTolerance))
	}
	if l.overruns > 0 {
		out = append(out, fmt.Sprintf("%d spans are shorter than their children", l.overruns))
	}
	var setupSpans time.Duration
	for _, d := range l.self[phaseSetup] {
		setupSpans += d
	}
	if setupSpans+l.prep > l.setup {
		out = append(out, fmt.Sprintf("set-up spans (%v) exceed set-up time (%v)", setupSpans+l.prep, l.setup))
	}
	if a := l.attributed(); a > l.measured {
		out = append(out, fmt.Sprintf("measured-phase spans (%v) exceed the measured phase (%v)", a, l.measured))
	}
	return out
}

// print writes the ledger: set-up, then each layer's measured-phase self
// time, summing to the runs' wall time.
func (l *ledger) print() {
	m := l.self[phaseMeasure]
	row := func(name string, d time.Duration, note string) {
		fmt.Printf("  %-28s %10.4f s %6.1f%%  %s\n", name, d.Seconds(), 100*d.Seconds()/l.runWall.Seconds(), note)
	}
	fmt.Printf("ledger (summed over runs; self times of the measured phase):\n")
	row("setup", l.setup, "build, deploy, population, generation")
	su := l.self[phaseSetup]
	row("  workload.setup_txs", su[layerSetupTxs], "(within setup)")
	row("  workload.next", su[layerNext], "(within setup)")
	row("  sign.prep", l.prep, "(within setup)")
	row("  pagedstate.get+set", su[layerStateGet]+su[layerStateSet]+su[layerStateOther], "(within setup)")
	if l.chainSplit {
		row("eventsim.self", m[layerEventsim], "")
		row("chains.cb", m[layerChains], "consensus, executor, block seal")
	} else {
		row("eventsim.self+chains.cb", m[layerEventsim], "chain built on an unwrapped scheduler")
	}
	row("core.cb", m[layerCore], "dispatch, retry, taskproc matching")
	row("chain.submit", m[layerChainSubmit], "")
	row("chain.blockat", m[layerChainBlockAt], "")
	row("contract.invoke", m[layerContract], "")
	row("pagedstate.get", m[layerStateGet], "")
	row("pagedstate.set", m[layerStateSet], "")
	row("pagedstate.other", m[layerStateOther], "")
	row("workload.next", m[layerNext], "")
	row("core.report", m[layerReport], "engine report and experiment digest")
	row("bench.digest", m[layerDigest], "outcome hash")
	row("unattributed", l.residual(), "engine loop between steps")
	row("= run wall", l.runWall, "")
	v, pct := tail(l.steps)
	fmt.Printf("  eventsim steps: %d, p50 %.3f ms, tail p%.1f %.3f ms\n", len(l.steps), median(l.steps), pct, v)
}

// traced alternates untraced and traced repetitions while the budget
// lasts. Every traced run must reproduce the untraced digests and close its
// ledger; the tracing overhead is the ratio of the two sides' median walls.
func (b *bench) traced() (result, error) {
	b.announceReference()
	samples := map[string][]float64{}
	var steps, plainWalls, tracedWalls []float64
	correct := true
	var last *ledger
	p := pacer{budget: b.budget}
	for p.next() {
		i := p.n
		plain, err := b.w.repeat(b.seed, false, b.stateDir)
		if err != nil {
			return result{}, err
		}
		b.check(plain, fmt.Sprintf("untraced repetition %d", i))
		rep, err := b.w.repeat(b.seed, true, b.stateDir)
		if err != nil {
			return result{}, err
		}
		label := fmt.Sprintf("traced repetition %d", i)
		b.check(rep, label)
		if len(plain.errs) > 0 || len(rep.errs) > 0 {
			continue
		}
		plainWalls = append(plainWalls, plain.wall.Seconds())
		tracedWalls = append(tracedWalls, rep.wall.Seconds())
		l := rep.ledger()
		for k, v := range l.metrics {
			samples[k] = append(samples[k], v)
		}
		steps = append(steps, l.steps...)
		for _, p := range l.problems() {
			correct = false
			fmt.Printf("%s: ledger does not close: %s\n", label, p)
		}
		fmt.Printf("%s: wall %.3fs (untraced %.3fs), ledger residual %.2f%%\n",
			label, rep.wall.Seconds(), plain.wall.Seconds(), 100*l.metrics["ledger.residual_frac"])
		last = l
	}
	if last != nil {
		last.print()
	}
	overhead := ratio(median(tracedWalls), median(plainWalls))
	fmt.Printf("%s: tracing overhead %.3fx (median traced / untraced wall over %d pairs)\n", b.w.name, overhead, len(tracedWalls))
	res := result{Correct: correct && b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	fmt.Printf("%s: per-layer medians over %d traced repetitions\n", b.w.name, len(tracedWalls))
	for _, m := range perLayerUnits {
		v := median(samples[m.name])
		switch m.name {
		case "eventsim.step_ms_p50":
			v = median(steps)
		case "eventsim.step_ms_tail":
			v, _ = tail(steps)
		case "trace.overhead":
			v = overhead
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Printf("  %-24s %14.6g %s\n", m.name, v, m.unit)
	}
	if last != nil && !last.chainSplit {
		fmt.Println("  (chains.cb_s and eventsim.self_s are one figure here: the experiment builds its chain on an unwrapped scheduler)")
	}
	return res, nil
}
