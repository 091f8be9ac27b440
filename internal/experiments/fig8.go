package experiments

import (
	"fmt"
	"runtime"
	"time"

	"hammer/internal/chain"
	"hammer/internal/sign"
	"hammer/internal/workload"
)

// Fig8Result is one Fig 8 data point: the wall-clock workload preparation
// time under one signing strategy.
type Fig8Result struct {
	Strategy string // "serial", "async", "async-pipeline"
	Count    int
	Duration time.Duration
	// Speedup is relative to the serial strategy for the same count.
	Speedup float64
}

// String renders the row.
func (r Fig8Result) String() string {
	return fmt.Sprintf("%-14s %6d txs  %10v  %5.2fx", r.Strategy, r.Count, r.Duration.Round(time.Millisecond), r.Speedup)
}

// Fig8 measures workload generation (signing) time for the serial baseline,
// the asynchronous worker pool, and the asynchronous pipeline that overlaps
// signing with execution. The paper reports ≈6.88× for async pipelining
// over serial on its testbed; the exact factor here depends on GOMAXPROCS.
func Fig8(opts Options) ([]Fig8Result, error) {
	opts.fillDefaults()
	signer, err := sign.NewSigner(opts.Seed)
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(workload.Profile{
		Name: "fig8", Accounts: 1000, InitialBalance: 1_000_000, MaxAmount: 100, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}

	// fresh also collects the garbage of the previous strategy, so no
	// strategy pays for another's heap.
	fresh := func() []*chain.Transaction {
		txs := gen.Batch(opts.SignCount, "client-0", "server-0")
		for _, tx := range txs {
			tx.Signature = nil
			tx.PubKey = nil
		}
		runtime.GC()
		return txs
	}

	var out []Fig8Result

	// Serial: sign everything on one goroutine, then "execute".
	txs := fresh()
	start := time.Now()
	if err := sign.SignSerial(txs, signer); err != nil {
		return nil, err
	}
	serial := time.Since(start)
	out = append(out, Fig8Result{Strategy: "serial", Count: opts.SignCount, Duration: serial, Speedup: 1})

	// Async: parallel pool, still a barrier before execution.
	txs = fresh()
	start = time.Now()
	if err := sign.SignAsync(txs, signer, runtime.GOMAXPROCS(0)); err != nil {
		return nil, err
	}
	async := time.Since(start)
	out = append(out, Fig8Result{Strategy: "async", Count: opts.SignCount, Duration: async, Speedup: serial.Seconds() / async.Seconds()})

	// Async pipeline: the consumer overlaps "execution" with signing, so
	// the measured preparation cost is the time until the pipeline can
	// keep execution fed — emulated by consuming concurrently.
	txs = fresh()
	start = time.Now()
	p := sign.NewPipeline(signer, runtime.GOMAXPROCS(0))
	done := make(chan int)
	go func() {
		n := 0
		for range p.Out() {
			n++
		}
		done <- n
	}()
	for _, tx := range txs {
		p.Submit(tx)
	}
	p.Close()
	n := <-done
	pipeline := time.Since(start)
	if err := p.Err(); err != nil {
		return nil, err
	}
	if n != len(txs) {
		return nil, fmt.Errorf("experiments: fig8 pipeline lost transactions: %d/%d", n, len(txs))
	}
	out = append(out, Fig8Result{Strategy: "async-pipeline", Count: opts.SignCount, Duration: pipeline, Speedup: serial.Seconds() / pipeline.Seconds()})

	return out, nil
}

// Fig8CSV renders the rows for the CSV exporter.
func Fig8CSV(rows []Fig8Result) (header []string, records [][]string) {
	header = []string{"strategy", "count", "duration_s", "speedup_vs_serial"}
	for _, r := range rows {
		records = append(records, []string{r.Strategy, fmt.Sprint(r.Count), fmtSeconds(r.Duration), fmtF(r.Speedup)})
	}
	return header, records
}
