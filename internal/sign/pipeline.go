package sign

import (
	"runtime"
	"sync"
	"sync/atomic"

	"hammer/internal/chain"
)

// SignSerial signs every transaction on the calling goroutine — the naive
// baseline of Fig 8 ("Serial"). It returns the first error encountered.
func SignSerial(txs []*chain.Transaction, signer *Signer) error {
	for _, tx := range txs {
		if err := signer.Sign(tx); err != nil {
			return err
		}
	}
	return nil
}

// SignAsync signs transactions with a pool of workers ("Asynchronous" in
// Fig 8): signatures are independent of one another, so they parallelise
// perfectly, but the caller still waits for the whole batch before
// execution can begin.
func SignAsync(txs []*chain.Transaction, signer *Signer, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		next     atomic.Int64
	)
	// Workers claim indices from a shared counter rather than receiving
	// from a channel: a feeding goroutine would compete with the signers
	// for CPUs and park/wake a worker on every transaction.
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(txs)) {
					return
				}
				if err := signer.Sign(txs[i]); err != nil {
					errOnce.Do(func() { firstErr = err })
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Pipeline signs transactions with a worker pool and streams them out as
// they become ready ("Asynchronous Pipeline" in Fig 8): the consumer can
// begin executing the first signed transactions while later ones are still
// being signed, overlapping the preparation and execution phases
// (paper §III-D2).
type Pipeline struct {
	signer  *Signer
	workers int

	out  chan *chain.Transaction
	in   chan *chain.Transaction
	wg   sync.WaitGroup
	once sync.Once

	mu       sync.Mutex
	firstErr error
}

// pipelineBuffer is the per-worker slack on the input and output channels.
// Unbuffered hand-offs park and wake a goroutine on every transaction, and
// the submitter and consumer then steal CPU from the signers.
const pipelineBuffer = 64

// NewPipeline starts a signing pipeline with the given number of workers
// (GOMAXPROCS when ≤ 0). Callers must drain Out and call Close when done
// submitting.
func NewPipeline(signer *Signer, workers int) *Pipeline {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pipeline{
		signer:  signer,
		workers: workers,
		in:      make(chan *chain.Transaction, pipelineBuffer*workers),
		out:     make(chan *chain.Transaction, pipelineBuffer*workers),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	go func() {
		p.wg.Wait()
		close(p.out)
	}()
	return p
}

func (p *Pipeline) worker() {
	defer p.wg.Done()
	for tx := range p.in {
		if err := p.signer.Sign(tx); err != nil {
			p.mu.Lock()
			if p.firstErr == nil {
				p.firstErr = err
			}
			p.mu.Unlock()
			continue
		}
		p.out <- tx
	}
}

// Submit feeds one transaction into the pipeline. It must not be called
// after Close.
func (p *Pipeline) Submit(tx *chain.Transaction) {
	p.in <- tx
}

// Out returns the stream of signed transactions. The channel closes after
// Close once all in-flight transactions have drained.
func (p *Pipeline) Out() <-chan *chain.Transaction { return p.out }

// Close signals that no more transactions will be submitted.
func (p *Pipeline) Close() {
	p.once.Do(func() { close(p.in) })
}

// Err returns the first signing error observed, if any. Call after Out has
// closed.
func (p *Pipeline) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.firstErr
}
