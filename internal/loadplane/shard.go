package loadplane

import (
	"context"
	"fmt"
	"math"

	"hammer/internal/metrics"
)

// ringWindows is the calendar-ring horizon in windows. Inter-arrival gaps
// are clamped below the horizon, so a client's next arrival always lands
// within ringWindows of the window being drained; with the default 1 s
// window and sane per-client rates the clamp is astronomically unlikely to
// bind (P ≈ e^(-rate·255s)), and when it does it binds identically in every
// partitioning.
const ringWindows = 256

// splitmix64 is the SplitMix64 finaliser: a bijective 64-bit mixer. Each
// (seed, client, arrival#) triple maps through it to an independent draw, so
// client processes are stateless functions of their identity — the property
// the whole determinism story leans on.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// arrivalBits draws the 64 random bits for client c's k-th arrival.
func arrivalBits(seed int64, c uint32, k uint32) uint64 {
	return splitmix64(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(c)<<32 ^ uint64(k))
}

// expGapNs converts 64 random bits into an exponential inter-arrival gap
// with the given mean, quantised to nanoseconds and clamped to [1, maxGap].
// The float excursion (one Log, one multiply) is immediately quantised; Go's
// math.Log is a portable software implementation, so the quantised gap is a
// deterministic function of the bits on every platform this repo targets.
func expGapNs(bits uint64, meanNs float64, maxGapNs int64) int64 {
	// 53 high bits → u ∈ (0, 1): never 0 (offset by 0.5), never 1.
	u := (float64(bits>>11) + 0.5) / (1 << 53)
	gap := int64(-math.Log(u) * meanNs)
	if gap < 1 {
		gap = 1
	}
	if gap > maxGapNs {
		gap = maxGapNs
	}
	return gap
}

// ShardFootprint estimates the fixed-layout resident bytes one worker needs
// for a client range: 8-byte next-arrival plus 4-byte arrival counter per
// client, one 4-byte ring entry per in-flight client, and the ring headers.
// It is O(clients in range) and independent of how many arrivals the run
// generates — the bounded-memory claim in one formula.
func ShardFootprint(rng Range) int64 {
	return int64(rng.Len())*(8+4+4) + ringWindows*24
}

// GenerateRange runs the open-loop arrival processes of clients [rng.Lo,
// rng.Hi) across the spec's window grid, calling emit with consecutive
// batches of BatchWindows windows. Windows below startWindow are generated
// (client state must be replayed) but not emitted — the resume path for a
// worker that rejoins after a crash. emit owns the slice it receives.
//
// Memory is bounded by ShardFootprint: client state lives in two flat
// arrays, and arrivals stream through per-window counters — nothing
// per-arrival is retained.
func GenerateRange(ctx context.Context, spec Spec, rng Range, startWindow int64, emit func([]metrics.Window) error) error {
	spec.fillDefaults()
	if err := spec.Validate(); err != nil {
		return err
	}
	if !rng.Valid(spec.Clients) {
		return fmt.Errorf("loadplane: range %v invalid for %d clients", rng, spec.Clients)
	}
	windows := spec.Windows()
	if startWindow < 0 || startWindow > windows {
		return fmt.Errorf("loadplane: start window %d outside [0, %d]", startWindow, windows)
	}

	winNs := spec.Window.Nanoseconds()
	endNs := windows * winNs
	meanNs := 1e9 / spec.RatePerClient
	maxGapNs := int64(ringWindows-1) * winNs

	n := rng.Len()
	next := make([]int64, n)   // absolute ns of the client's next arrival
	count := make([]uint32, n) // arrivals drawn so far (the hash-stream cursor)
	ring := make([][]uint32, ringWindows)

	push := func(local int, atNs int64) {
		if atNs >= endNs {
			return // the client falls silent past the run's end
		}
		w := atNs / winNs
		ring[w%ringWindows] = append(ring[w%ringWindows], uint32(local))
	}

	for local := 0; local < n; local++ {
		client := uint32(rng.Lo + local)
		gap := expGapNs(arrivalBits(spec.Seed, client, 0), meanNs, maxGapNs)
		count[local] = 1
		next[local] = gap
		push(local, gap)
	}

	batch := make([]metrics.Window, 0, spec.BatchWindows)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		out := batch
		batch = make([]metrics.Window, 0, spec.BatchWindows)
		return emit(out)
	}

	for w := int64(0); w < windows; w++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		stat := metrics.Window{Index: w}
		winEnd := (w + 1) * winNs
		slot := w % ringWindows
		bucket := ring[slot]
		ring[slot] = bucket[:0]
		for _, local := range bucket {
			client := uint32(rng.Lo + int(local))
			fired := false
			for next[local] < winEnd {
				bits := arrivalBits(spec.Seed, client, count[local])
				stat.Arrivals++
				stat.Checksum += splitmix64(bits ^ 0xa5a5a5a5a5a5a5a5)
				fired = true
				next[local] += expGapNs(bits, meanNs, maxGapNs)
				count[local]++
			}
			if fired {
				stat.Busy++
			}
			push(int(local), next[local])
		}
		if w >= startWindow {
			batch = append(batch, stat)
			if len(batch) >= spec.BatchWindows {
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
	return flush()
}

// CollectRange is GenerateRange with an in-memory sink: it returns the full
// window series for the range. Tests and the coordinator's lost-range
// recovery use it.
func CollectRange(ctx context.Context, spec Spec, rng Range, startWindow int64) ([]metrics.Window, error) {
	var out []metrics.Window
	err := GenerateRange(ctx, spec, rng, startWindow, func(ws []metrics.Window) error {
		out = append(out, ws...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
