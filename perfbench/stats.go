package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// minBeyond is the number of samples a tail percentile needs beyond it
// before it is reported: fewer and the figure is a single outlier's value.
const minBeyond = 10

// median returns the median of xs (0 for no samples). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the p-th percentile (0 < p < 1, nearest rank) of
// xs, refusing it when fewer than minBeyond samples lie beyond that rank.
func tailPercentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v out of (0, 1)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d",
			100*p, n, beyond, minBeyond)
	}
	return sorted(xs)[rank-1], nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a / b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapSampler samples the live Go heap — the bytes the latest garbage
// collection found reachable — every 2 ms until stop is called.
type heapSampler struct {
	done    chan struct{}
	wg      sync.WaitGroup
	samples []float64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, float64(s[0].Value.Uint64()))
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns, in MiB, the level the live heap reached
// or exceeded for a tenth of the pass. The maximum itself depends on
// whether a collection happened to mark during a brief allocation spike;
// with a 2-vCPU host it moved by a quarter between runs of one workload.
func (h *heapSampler) stop() float64 {
	close(h.done)
	h.wg.Wait()
	s := sorted(h.samples)
	return s[int(0.9*float64(len(s)-1))] / (1 << 20)
}

// runtimeTotals is a snapshot of the Go runtime counters the benchmark
// reports per pass.
type runtimeTotals struct {
	gcCycles   float64
	gcPauseS   float64
	allocBytes float64
}

var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeTotals {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeTotals{
		gcCycles:   float64(s[0].Value.Uint64()),
		gcPauseS:   histogramSum(s[1].Value.Float64Histogram()),
		allocBytes: float64(s[2].Value.Uint64()),
	}
}

// histogramSum estimates the total of a runtime/metrics histogram from
// its bucket midpoints (open-ended buckets use their finite edge).
func histogramSum(h *metrics.Float64Histogram) float64 {
	var t float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		}
		t += float64(c) * mid
	}
	return t
}

// layersSince fills the Go-runtime per-layer metrics with the counters'
// growth since before.
func (before runtimeTotals) layersSince(l layers) {
	now := readRuntime()
	l["gc.cycles"] = now.gcCycles - before.gcCycles
	l["gc.pause_s"] = now.gcPauseS - before.gcPauseS
	l["alloc_mb"] = (now.allocBytes - before.allocBytes) / (1 << 20)
}
