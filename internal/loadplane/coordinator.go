package loadplane

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"hammer/internal/metrics"
	"hammer/internal/rpc"
)

// Wire methods of the coordinator's control plane.
const (
	MethodJoin   = "loadplane.join"
	MethodReport = "loadplane.report"
	MethodDone   = "loadplane.done"
)

// JoinParams identifies a worker asking for (or reclaiming) a client range.
type JoinParams struct {
	Worker string `json:"worker"`
}

// JoinResult hands the worker everything it needs: the full spec, its client
// range, and the window to resume from (non-zero when rejoining after a
// crash — the coordinator already holds the prefix).
type JoinResult struct {
	Spec        Spec  `json:"spec"`
	Range       Range `json:"range"`
	StartWindow int64 `json:"start_window"`
}

// ReportParams carries one batch of consecutive metric windows for the
// worker's range. Reports are idempotent: windows the coordinator already
// holds are ignored, so transport-level retries are safe.
type ReportParams struct {
	Worker  string           `json:"worker"`
	Windows []metrics.Window `json:"windows"`
}

// ReportResult acknowledges a batch.
type ReportResult struct {
	OK bool `json:"ok"`
}

// DoneParams marks a worker's range finished.
type DoneParams struct {
	Worker string `json:"worker"`
}

// CoordinatorConfig parameterises a run of the control plane.
type CoordinatorConfig struct {
	// Spec is the workload; defaults are filled.
	Spec Spec
	// Workers is how many ranges to partition the population into.
	Workers int
	// Liveness is the real-time silence after which an assigned,
	// unfinished worker is declared lost. Zero means 10 s.
	Liveness time.Duration
	// RecoverLost makes the coordinator regenerate a lost range's missing
	// windows locally — arrival generation is a pure function of (seed,
	// client), so recovery is byte-identical to what the worker would have
	// sent. When false, Wait reports lost ranges as an error instead.
	RecoverLost bool
	// Assignments optionally pins worker names to specific ranges (e.g.
	// from a deploy playbook). Unnamed workers draw from the remaining
	// ranges in order.
	Assignments map[string]Range
}

// rangeState tracks one partition's progress. Workers emit windows in
// order, so received windows always form a contiguous prefix; prefix is
// both the dedup cursor and the rejoin point.
type rangeState struct {
	rng     Range
	windows []metrics.Window // filled [0, prefix)
	prefix  int64
	worker  string // current owner; "" when unassigned or lost
	last    time.Time
	done    bool
	lost    bool // true if a worker was declared dead while owning it
}

// Coordinator is the run's control plane: it assigns client ranges to
// joining workers, folds their window reports into per-range series, and
// merges the series on the shared virtual clock once every range is
// complete. It never hangs on a dead worker: liveness deadlines mark the
// range lost and (by default) regenerate it locally.
type Coordinator struct {
	cfg    CoordinatorConfig
	ranges []Range

	mu     sync.Mutex
	states []*rangeState
	byName map[string]int // worker name → range index

	complete chan struct{}
	once     sync.Once

	srv     *rpc.Server
	stopMon chan struct{}
	monOnce sync.Once
	monWg   sync.WaitGroup
}

// NewCoordinator builds the control plane for cfg.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg.Spec.fillDefaults()
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Liveness <= 0 {
		cfg.Liveness = 10 * time.Second
	}
	ranges := PartitionClients(cfg.Spec.Clients, cfg.Workers)
	c := &Coordinator{
		cfg:      cfg,
		ranges:   ranges,
		states:   make([]*rangeState, len(ranges)),
		byName:   make(map[string]int),
		complete: make(chan struct{}),
		stopMon:  make(chan struct{}),
	}
	windows := cfg.Spec.Windows()
	for i, rng := range ranges {
		c.states[i] = &rangeState{rng: rng, windows: make([]metrics.Window, windows)}
	}
	for name, rng := range cfg.Assignments {
		idx := -1
		for i, r := range ranges {
			if r == rng {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("loadplane: assignment %s=%v matches no partition range", name, rng)
		}
		if owner := c.states[idx].worker; owner != "" {
			return nil, fmt.Errorf("loadplane: range %v assigned to both %s and %s", rng, owner, name)
		}
		c.states[idx].worker = name
		c.byName[name] = idx
	}
	return c, nil
}

// Spec returns the (default-filled) spec the coordinator runs.
func (c *Coordinator) Spec() Spec { return c.cfg.Spec }

// Ranges returns the partition handed to workers.
func (c *Coordinator) Ranges() []Range { return c.ranges }

// Mux returns a method table carrying the loadplane.* control plane,
// suitable for rpc.NewMuxServer.
func (c *Coordinator) Mux() *rpc.Mux {
	mux := rpc.NewMux()
	mux.Handle(MethodJoin, func(params json.RawMessage) (any, *rpc.Error) {
		var p JoinParams
		if e := rpc.DecodeParams(params, &p); e != nil {
			return nil, e
		}
		return c.join(p.Worker)
	})
	mux.Handle(MethodReport, func(params json.RawMessage) (any, *rpc.Error) {
		var p ReportParams
		if e := rpc.DecodeParams(params, &p); e != nil {
			return nil, e
		}
		return c.report(p.Worker, p.Windows)
	})
	mux.Handle(MethodDone, func(params json.RawMessage) (any, *rpc.Error) {
		var p DoneParams
		if e := rpc.DecodeParams(params, &p); e != nil {
			return nil, e
		}
		return c.markDone(p.Worker)
	})
	return mux
}

// Listen serves the control plane on addr and starts the liveness monitor;
// it returns the bound address for workers to dial.
func (c *Coordinator) Listen(addr string) (string, error) {
	c.srv = rpc.NewMuxServer(c.Mux())
	bound, err := c.srv.Listen(addr)
	if err != nil {
		return "", err
	}
	c.monWg.Add(1)
	go c.monitor()
	return bound, nil
}

// Close stops the server and the liveness monitor.
func (c *Coordinator) Close() error {
	c.monOnce.Do(func() { close(c.stopMon) })
	c.monWg.Wait()
	if c.srv != nil {
		return c.srv.Close()
	}
	return nil
}

func (c *Coordinator) join(name string) (*JoinResult, *rpc.Error) {
	if name == "" {
		return nil, &rpc.Error{Code: rpc.CodeInvalidParams, Message: "worker name required"}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	idx, known := c.byName[name]
	if !known {
		idx = -1
		for i, st := range c.states {
			if st.worker == "" && !st.done {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, &rpc.Error{Code: rpc.CodeInvalidParams,
				Message: fmt.Sprintf("no range available for worker %q (%d ranges, all claimed)", name, len(c.states))}
		}
		c.byName[name] = idx
	}
	st := c.states[idx]
	st.worker = name
	st.last = time.Now()
	return &JoinResult{Spec: c.cfg.Spec, Range: st.rng, StartWindow: st.prefix}, nil
}

func (c *Coordinator) report(name string, ws []metrics.Window) (*ReportResult, *rpc.Error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx, ok := c.byName[name]
	if !ok {
		return nil, &rpc.Error{Code: rpc.CodeInvalidParams, Message: "unknown worker " + name}
	}
	st := c.states[idx]
	st.last = time.Now()
	total := c.cfg.Spec.Windows()
	for i := range ws {
		w := ws[i]
		if w.Index < 0 || w.Index >= total {
			return nil, &rpc.Error{Code: rpc.CodeInvalidParams,
				Message: fmt.Sprintf("window index %d outside [0, %d)", w.Index, total)}
		}
		if w.Index < st.prefix {
			continue // duplicate from a retried report: idempotent
		}
		if w.Index > st.prefix {
			return nil, &rpc.Error{Code: rpc.CodeInvalidParams,
				Message: fmt.Sprintf("window %d reported before %d; reports must be in order", w.Index, st.prefix)}
		}
		st.windows[w.Index] = w
		st.prefix++
	}
	// Completion is declared by loadplane.done, not inferred from the last
	// report: the worker must receive its final ack before the coordinator
	// can consider shutting down.
	return &ReportResult{OK: true}, nil
}

func (c *Coordinator) markDone(name string) (*ReportResult, *rpc.Error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx, ok := c.byName[name]
	if !ok {
		return nil, &rpc.Error{Code: rpc.CodeInvalidParams, Message: "unknown worker " + name}
	}
	st := c.states[idx]
	if st.prefix != c.cfg.Spec.Windows() {
		return nil, &rpc.Error{Code: rpc.CodeInvalidParams,
			Message: fmt.Sprintf("done with %d/%d windows reported", st.prefix, c.cfg.Spec.Windows())}
	}
	st.done = true
	c.checkComplete()
	return &ReportResult{OK: true}, nil
}

// checkComplete fires the completion signal once every range is done.
// Callers hold c.mu.
func (c *Coordinator) checkComplete() {
	for _, st := range c.states {
		if !st.done {
			return
		}
	}
	c.once.Do(func() { close(c.complete) })
}

// monitor declares silent workers lost so a crash never wedges the run:
// the range is released for a rejoining worker, and Wait's recovery path
// regenerates whatever nobody finished.
func (c *Coordinator) monitor() {
	defer c.monWg.Done()
	tick := time.NewTicker(c.cfg.Liveness / 4)
	defer tick.Stop()
	for {
		select {
		case <-c.stopMon:
			return
		case <-c.complete:
			return
		case now := <-tick.C:
			c.mu.Lock()
			for _, st := range c.states {
				if st.done || st.worker == "" {
					continue
				}
				if now.Sub(st.last) > c.cfg.Liveness {
					delete(c.byName, st.worker)
					st.worker = ""
					st.lost = true
				}
			}
			c.mu.Unlock()
		}
	}
}

// Lost returns the ranges whose worker was declared dead at least once,
// sorted by Lo — the run's casualty report.
func (c *Coordinator) Lost() []Range {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Range
	for _, st := range c.states {
		if st.lost {
			out = append(out, st.rng)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lo < out[j].Lo })
	return out
}

// Wait blocks until every range is complete or ctx ends, then returns the
// merged window series. If ranges are unfinished when ctx ends (worker
// crashes with no rejoin), RecoverLost regenerates the missing windows
// locally — byte-identical by purity — otherwise Wait returns an error
// naming the incomplete ranges. Either way it returns; it never hangs.
func (c *Coordinator) Wait(ctx context.Context) ([]metrics.Window, error) {
	select {
	case <-c.complete:
	case <-ctx.Done():
	}
	c.mu.Lock()
	var incomplete []*rangeState
	for _, st := range c.states {
		if !st.done {
			incomplete = append(incomplete, st)
		}
	}
	c.mu.Unlock()
	if len(incomplete) > 0 {
		if !c.cfg.RecoverLost {
			names := make([]string, len(incomplete))
			for i, st := range incomplete {
				names[i] = st.rng.String()
			}
			return nil, fmt.Errorf("loadplane: run ended with incomplete ranges %v", names)
		}
		for _, st := range incomplete {
			// Regenerate from the contiguous prefix. Purity guarantees the
			// suffix equals what the lost worker would have reported.
			c.mu.Lock()
			start := st.prefix
			rng := st.rng
			c.mu.Unlock()
			suffix, err := CollectRange(context.Background(), c.cfg.Spec, rng, start)
			if err != nil {
				return nil, fmt.Errorf("loadplane: recover %v: %w", rng, err)
			}
			c.mu.Lock()
			for i := range suffix {
				if suffix[i].Index >= st.prefix {
					st.windows[suffix[i].Index] = suffix[i]
				}
			}
			st.prefix = c.cfg.Spec.Windows()
			st.done = true
			st.lost = true
			c.mu.Unlock()
		}
	}
	c.mu.Lock()
	parts := make([][]metrics.Window, len(c.states))
	for i, st := range c.states {
		parts[i] = st.windows
	}
	c.mu.Unlock()
	return metrics.MergeWindows(parts...), nil
}
