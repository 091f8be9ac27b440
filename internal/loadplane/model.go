package loadplane

import (
	"fmt"

	"hammer/internal/metrics"
)

// Row is one evaluated window of the load-plane run: the merged arrival
// stream pushed through the service model. Every field is an integer so the
// series — and the CSV rendered from it — is bit-deterministic regardless of
// how the arrivals were generated or merged.
type Row struct {
	Window   int64 `json:"window"`
	Offered  int64 `json:"offered"`
	Admitted int64 `json:"admitted"`
	Dropped  int64 `json:"dropped"`
	Served   int64 `json:"served"`
	Queue    int64 `json:"queue"` // backlog at window end
	Busy     int64 `json:"busy"`  // clients that fired this window
	// AvgLatencyNs is the mean sojourn estimate for arrivals admitted this
	// window: base latency plus the time to drain the backlog ahead of the
	// window's midpoint arrival.
	AvgLatencyNs int64  `json:"avg_latency_ns"`
	Checksum     uint64 `json:"checksum"`
}

// Evaluate pushes the merged arrival series through the spec's service
// model: a fluid single queue with capacity RatePerSec, admission bounded by
// QueueCap, arrivals beyond the bound dropped. All arithmetic is int64 over
// already-merged integers, so the output is partition-invariant by
// construction.
func Evaluate(spec Spec, merged []metrics.Window) []Row {
	spec.fillDefaults()
	winNs := spec.Window.Nanoseconds()
	capPerWin := spec.Service.RatePerSec * winNs / 1e9
	baseNs := spec.Service.BaseLatency.Nanoseconds()

	rows := make([]Row, len(merged))
	var queue int64
	for i := range merged {
		w := &merged[i]
		offered := w.Arrivals
		room := spec.Service.QueueCap - queue
		if room < 0 {
			room = 0
		}
		adm := offered
		if adm > room {
			adm = room
		}
		dropped := offered - adm
		// The window's midpoint admitted arrival waits behind the backlog
		// at window start plus half the window's own admissions.
		waitNs := (queue + adm/2) * 1e9 / spec.Service.RatePerSec
		served := queue + adm
		if served > capPerWin {
			served = capPerWin
		}
		queue = queue + adm - served
		rows[i] = Row{
			Window:       w.Index,
			Offered:      offered,
			Admitted:     adm,
			Dropped:      dropped,
			Served:       served,
			Queue:        queue,
			Busy:         w.Busy,
			AvgLatencyNs: baseNs + waitNs,
			Checksum:     w.Checksum,
		}
	}
	return rows
}

// ClosedLoop models the same population driven Caliper-style: each client
// waits for its previous request to clear the queue (think time = mean
// inter-arrival gap) before issuing the next, and blocks — rather than
// dropping — when the admission queue is full. Issue rate is therefore
// capped by idle clients, and idle clients shrink as requests back up: the
// feedback loop that makes closed-loop injection self-limiting. In steady
// state the issue rate collapses to the service rate regardless of the
// population's true demand — the coordinated-omission blind spot the
// open-loop plane exists to avoid. It consumes no arrival stream because
// the feedback loop, not the arrival law, dominates.
func ClosedLoop(spec Spec) []Row {
	spec.fillDefaults()
	winNs := spec.Window.Nanoseconds()
	capPerWin := spec.Service.RatePerSec * winNs / 1e9
	baseNs := spec.Service.BaseLatency.Nanoseconds()
	thinkNs := int64(1e9 / spec.RatePerClient)
	if thinkNs < 1 {
		thinkNs = 1
	}
	windows := spec.Windows()

	rows := make([]Row, windows)
	var queue, blocked int64
	for w := int64(0); w < windows; w++ {
		// Clients with a request in flight — queued, being served, or
		// blocked at the full queue — are not thinking; only the idle
		// remainder can issue.
		idle := int64(spec.Clients) - queue - blocked
		if idle < 0 {
			idle = 0
		}
		issued := idle * winNs / thinkNs
		if issued > idle {
			issued = idle
		}
		wanting := blocked + issued
		room := spec.Service.QueueCap - queue
		if room < 0 {
			room = 0
		}
		adm := wanting
		if adm > room {
			adm = room
		}
		blocked = wanting - adm
		waitNs := (queue + adm/2) * 1e9 / spec.Service.RatePerSec
		served := queue + adm
		if served > capPerWin {
			served = capPerWin
		}
		queue = queue + adm - served
		rows[w] = Row{
			Window:       w,
			Offered:      issued,
			Admitted:     adm,
			Dropped:      0, // closed loops block; they never shed load
			Served:       served,
			Queue:        queue,
			Busy:         issued,
			AvgLatencyNs: baseNs + waitNs,
		}
	}
	return rows
}

// RowsCSV renders an evaluated series as CSV header + records. Derived
// float columns (latency in ms) are formatted from the integer fields at
// this final step only, so identical rows always render identical bytes.
func RowsCSV(rows []Row) (header []string, records [][]string) {
	header = []string{
		"window", "offered", "admitted", "dropped", "served",
		"queue", "busy", "avg_latency_ms", "checksum",
	}
	records = make([][]string, len(rows))
	for i, r := range rows {
		records[i] = []string{
			fmt.Sprintf("%d", r.Window),
			fmt.Sprintf("%d", r.Offered),
			fmt.Sprintf("%d", r.Admitted),
			fmt.Sprintf("%d", r.Dropped),
			fmt.Sprintf("%d", r.Served),
			fmt.Sprintf("%d", r.Queue),
			fmt.Sprintf("%d", r.Busy),
			fmt.Sprintf("%.3f", float64(r.AvgLatencyNs)/1e6),
			fmt.Sprintf("%016x", r.Checksum),
		}
	}
	return header, records
}
