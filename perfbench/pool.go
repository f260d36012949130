package main

import (
	"sync/atomic"
	"time"

	"peak/internal/sched"
)

// timingPool is a sched.Pool that times every job and every Map call and
// delegates the scheduling itself to an inner pool. It changes when
// nothing runs, only what is recorded, so results are the inner pool's.
type timingPool struct {
	inner sched.Pool

	jobs     atomic.Int64
	busyNs   atomic.Int64 // summed over jobs: time inside fn(i)
	waitNs   atomic.Int64 // summed over jobs: Map entry to job start
	mapNs    atomic.Int64 // summed over Map calls: wall time of the call
	mapCalls atomic.Int64
}

func newTimingPool(inner sched.Pool) *timingPool { return &timingPool{inner: inner} }

func (p *timingPool) Map(n int, fn func(int)) {
	entry := time.Now()
	p.inner.Map(n, func(i int) {
		start := time.Now()
		p.waitNs.Add(int64(start.Sub(entry)))
		fn(i)
		p.busyNs.Add(int64(time.Since(start)))
		p.jobs.Add(1)
	})
	p.mapNs.Add(int64(time.Since(entry)))
	p.mapCalls.Add(1)
}

func (p *timingPool) Workers() int        { return p.inner.Workers() }
func (p *timingPool) Stats() *sched.Stats { return p.inner.Stats() }

// fill writes the rate-layer metrics: job count, busy and wait time, Map
// wall time and the utilization busy ÷ (Map wall × workers).
func (p *timingPool) fill(l layers) {
	busy := float64(p.busyNs.Load()) / 1e9
	mapS := float64(p.mapNs.Load()) / 1e9
	l["rate.jobs"] = float64(p.jobs.Load())
	l["rate.busy_s"] = busy
	l["rate.wait_s"] = float64(p.waitNs.Load()) / 1e9
	l["rate.map_s"] = mapS
	l["sched.utilization"] = ratio(busy, mapS*float64(p.Workers()))
}
