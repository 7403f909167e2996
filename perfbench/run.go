package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/snapshot"
	"repro/internal/testbed"
)

// model holds the simulated outputs of one run. They are functions of
// the config alone: a change that only makes the simulator faster must
// leave every field byte-identical.
type model struct {
	GoodputGbps      float64 // NetApp-T goodput over the measure window
	DropPct          float64 // receiver NIC drops / arrivals over the window, all receivers
	RPCP99us         float64 // NetApp-L p99 latency (0 without the RPC loop)
	FluidGoodputGbps float64 // fluid background goodput over the whole run
	Digest           uint64  // combined final-state digest
}

// run is one execution of a workload: build, load, simulate, read out.
type run struct {
	setupS     float64 // testbed.New plus app start
	runS       float64 // wall time of warmup + measure
	cpuS       float64 // process user+sys CPU over the same interval
	liveHeapMB float64 // live heap after a forced GC, testbed still referenced

	model    model
	timeline *snapshot.Timeline
	config   resolvedConfig

	// Filled only by traced runs.
	census    map[string]float64 // per-layer counts, by metric name
	profile   []byte             // gzipped CPU profile of the run interval
	digestS   float64            // wall time inside Registry.Digests
	digests   []float64          // each Registry.Digests call, in ms
	windows   []float64          // each digest period of simulated time, in host ms
	newAllocs float64            // heap allocations made by testbed.New
	newMB     float64            // bytes allocated by testbed.New, in MB
	floor     []float64          // fluid floorFrac at each measure-window digest frame
}

// execute builds cfg and runs it once. A traced run records spans into
// sp under parent and takes a CPU profile of the run interval; an
// untraced run only records the digest timeline that verifies it. A
// panic in the simulator is returned as an error.
func execute(w workload, cfg testbed.Config, sp *spans, parent int) (r run, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	traced := sp != nil

	// Start every run as a fresh process would: the previous run's garbage
	// collected and its pages returned to the OS, so neither that
	// collection nor a varying share of recycled pages lands on this
	// run's clock.
	debug.FreeOSMemory()
	var ms0, ms1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	t0 := time.Now()
	tb := testbed.New(cfg)
	defer tb.Close()
	if traced {
		runtime.ReadMemStats(&ms1)
		r.newAllocs = float64(ms1.Mallocs - ms0.Mallocs)
		r.newMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	}
	tb.StartNetAppT()
	var rpc *apps.NetAppL
	if w.rpc {
		rpc = tb.StartNetAppL(rpcSize, 0, nil)
	}
	t1 := time.Now()
	r.setupS = t1.Sub(t0).Seconds()
	sp.add("setup", t0, t1, parent)

	// The digest recorder runs on the coordinator when sharded, with every
	// shard quiesced, so it reads one consistent global state.
	reg := tb.Registry()
	r.timeline = &snapshot.Timeline{}
	var winStart time.Time
	simSpan := -1
	tb.Every(digestEvery, func() {
		var d0 time.Time
		if traced {
			d0 = time.Now()
			sp.add("window", winStart, d0, simSpan)
			r.windows = append(r.windows, ms(d0.Sub(winStart)))
		}
		digests := reg.Digests()
		if traced {
			d1 := time.Now()
			sp.add("digest", d0, d1, simSpan)
			r.digestS += d1.Sub(d0).Seconds()
			r.digests = append(r.digests, ms(d1.Sub(d0)))
			if tb.FluidNet != nil && tb.Now() > cfg.Warmup {
				r.floor = append(r.floor, floorFrac(tb.FluidNet))
			}
			winStart = time.Now()
		}
		r.timeline.Append(snapshot.Frame{At: int64(tb.Now()), Events: tb.Processed(), Digests: digests})
	})

	var prof bytes.Buffer
	if traced {
		runtime.ReadMemStats(&ms0)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return r, fmt.Errorf("start cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile() // a no-op after the stop below; covers a panic
	}
	cpu0 := cpuTime()
	start := time.Now()
	winStart = start
	simSpan = sp.add("simulate", start, start, parent)
	tb.RunUntil(cfg.Warmup)
	tb.MarkWindow()
	if rpc != nil {
		rpc.SetRecording(true)
	}
	tb.RunFor(cfg.Measure)
	end := time.Now()
	cpu1 := cpuTime()
	r.runS = end.Sub(start).Seconds()
	r.cpuS = cpu1 - cpu0
	if traced {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&ms1)
		sp.list[simSpan].End = end
		r.profile = prof.Bytes()
	}

	m := tb.Collect()
	r.model = readModel(tb, m, rpc, reg)
	r.config = resolve(tb)
	if rpc != nil {
		r.config.RPCBytes = rpcSize
	}
	if traced {
		r.census = takeCensus(tb, rpc, &ms0, &ms1)
		if tb.FluidNet != nil {
			r.census["fluid.floor_frac"] = mean(r.floor)
		}
	}

	runtime.GC()
	runtime.ReadMemStats(&ms1)
	r.liveHeapMB = float64(ms1.HeapAlloc) / 1e6
	runtime.KeepAlive(tb)
	return r, nil
}

func readModel(tb *testbed.Testbed, m testbed.Metrics, rpc *apps.NetAppL, reg *snapshot.Registry) model {
	out := model{GoodputGbps: m.ThroughputGbps, Digest: snapshot.Combined(reg.Digests())}
	var arrivals, drops int64
	for _, h := range tb.Receivers {
		arrivals += h.NIC.Arrivals.SinceMark()
		drops += h.NIC.Drops.SinceMark()
	}
	if arrivals > 0 {
		out.DropPct = float64(drops) / float64(arrivals) * 100
	}
	if rpc != nil {
		out.RPCP99us = rpc.Latency.Quantile(0.99) / 1000
	}
	if tb.FluidNet != nil {
		if elapsed := tb.Now().Seconds(); elapsed > 0 {
			out.FluidGoodputGbps = tb.FluidNet.DeliveredBytes() * 8 / elapsed / 1e9
		}
	}
	return out
}

// cpuTime returns the process's user+sys CPU seconds so far.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
