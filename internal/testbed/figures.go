package testbed

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// Scale selects experiment fidelity: Quick for benchmarks/CI, Default for
// EXPERIMENTS.md numbers, Paper for the longest runs.
type Scale struct {
	Name    string
	Warmup  sim.Time
	Measure sim.Time
	// ThroughputMinRTO reduces the min RTO for throughput experiments so
	// the initial slow-start transient settles within an affordable
	// warmup (steady-state throughput is insensitive to the RTO floor;
	// latency experiments always keep the full 200 ms).
	ThroughputMinRTO sim.Time
	// LatencyWarmup precedes RPC recording; it must exceed the min RTO so
	// the background flows are past their startup transient.
	LatencyWarmup sim.Time
	// LatencyMinRTO, when non-zero, scales down the 200 ms min RTO for
	// latency runs (bench scale only: the RTO tail then appears at the
	// reduced scale; real-RTO numbers belong to the larger scales).
	LatencyMinRTO sim.Time
	RPCCount      int
	RPCSizes      []int
}

// Predefined scales.
var (
	// ScaleBench is the smallest sensible scale, used by the benchmark
	// harness so every figure regenerates in seconds.
	ScaleBench = Scale{
		Name: "bench", Warmup: 25 * sim.Millisecond, Measure: 8 * sim.Millisecond,
		ThroughputMinRTO: 4 * sim.Millisecond,
		LatencyWarmup:    50 * sim.Millisecond,
		LatencyMinRTO:    25 * sim.Millisecond,
		RPCCount:         60, RPCSizes: []int{128, 32768},
	}
	ScaleQuick = Scale{
		Name: "quick", Warmup: 40 * sim.Millisecond, Measure: 20 * sim.Millisecond,
		ThroughputMinRTO: 5 * sim.Millisecond,
		LatencyWarmup:    250 * sim.Millisecond,
		RPCCount:         200, RPCSizes: []int{128, 2048, 32768},
	}
	ScaleDefault = Scale{
		Name: "default", Warmup: 80 * sim.Millisecond, Measure: 60 * sim.Millisecond,
		ThroughputMinRTO: 10 * sim.Millisecond,
		LatencyWarmup:    300 * sim.Millisecond,
		RPCCount:         600, RPCSizes: []int{128, 512, 2048, 8192, 32768},
	}
	ScalePaper = Scale{
		Name: "paper", Warmup: 150 * sim.Millisecond, Measure: 150 * sim.Millisecond,
		ThroughputMinRTO: 10 * sim.Millisecond,
		LatencyWarmup:    450 * sim.Millisecond,
		RPCCount:         2500, RPCSizes: []int{128, 512, 2048, 8192, 32768},
	}
)

func (s Scale) throughputOpts() Config {
	o := DefaultConfig()
	o.Warmup = s.Warmup
	o.Measure = s.Measure
	o.MinRTO = s.ThroughputMinRTO
	return o
}

// ---------------------------------------------------------------------------
// Figures 2, 10, 14: throughput / drops / memory shares vs degree of host
// congestion.

// CongestionRow is one cell of the host-congestion sweeps.
type CongestionRow struct {
	Degree float64
	DDIO   bool
	HostCC bool
	M      Metrics
}

func (r CongestionRow) String() string {
	return fmt.Sprintf("degree=%gx ddio=%-5v hostcc=%-5v tput=%6.1fG drop=%8.4f%% memNet=%.2f memMApp=%.2f IS=%5.1f BS=%6.1fG marked=%.1f%%",
		r.Degree, r.DDIO, r.HostCC, r.M.ThroughputGbps, r.M.DropRatePct,
		r.M.MemUtilNet, r.M.MemUtilMApp, r.M.AvgIS, r.M.AvgBSGbps, r.M.MarkedPct)
}

// RunCongestionSweep measures NetApp-T + MApp across degrees. The runs
// are independent simulations and execute in parallel.
func RunCongestionSweep(s Scale, ddio, hostcc bool, degrees []float64) []CongestionRow {
	return sweep.Map(len(degrees), 0, func(i int) CongestionRow {
		opts := s.throughputOpts()
		opts.DDIO = ddio
		opts.Degree = degrees[i]
		opts.HostCC = hostcc
		tb := New(opts)
		tb.StartNetAppT()
		m := tb.RunWindow()
		return CongestionRow{Degree: degrees[i], DDIO: ddio, HostCC: hostcc, M: m}
	})
}

// RunFigure2 reproduces Figure 2: baseline DCTCP under 0-3x host
// congestion, DDIO off and on.
func RunFigure2(s Scale) []CongestionRow {
	degrees := []float64{0, 1, 2, 3}
	rows := RunCongestionSweep(s, false, false, degrees)
	return append(rows, RunCongestionSweep(s, true, false, degrees)...)
}

// RunFigure10 reproduces Figure 10: DCTCP vs DCTCP+hostCC, DDIO off.
func RunFigure10(s Scale) []CongestionRow {
	degrees := []float64{0, 1, 2, 3}
	rows := RunCongestionSweep(s, false, false, degrees)
	return append(rows, RunCongestionSweep(s, false, true, degrees)...)
}

// RunFigure14 reproduces Figure 14: as Figure 10 with DDIO enabled
// (hostCC then uses I_T = 50, §5.2).
func RunFigure14(s Scale) []CongestionRow {
	degrees := []float64{0, 1, 2, 3}
	rows := RunCongestionSweep(s, true, false, degrees)
	return append(rows, RunCongestionSweep(s, true, true, degrees)...)
}

// ---------------------------------------------------------------------------
// Figures 3 and 11: MTU and flow-count sweeps at 3x congestion.

// MTUFlowRow is one cell of the MTU / flow-count sweeps.
type MTUFlowRow struct {
	MTU    int
	Flows  int
	DDIO   bool
	HostCC bool
	M      Metrics
}

func (r MTUFlowRow) String() string {
	return fmt.Sprintf("mtu=%-5d flows=%-2d ddio=%-5v hostcc=%-5v tput=%6.1fG drop=%8.4f%%",
		r.MTU, r.Flows, r.DDIO, r.HostCC, r.M.ThroughputGbps, r.M.DropRatePct)
}

// RunMTUFlowSweep measures 3x host congestion across MTU sizes (at 4
// flows) and flow counts (at 4096 MTU), in parallel.
func RunMTUFlowSweep(s Scale, ddio, hostcc bool) []MTUFlowRow {
	type cell struct{ mtu, flows int }
	cells := []cell{
		{1500, 0}, {4096, 0}, {9000, 0}, // MTU sweep at default flows
		{0, 8}, {0, 16}, // flow sweep at default MTU (4 covered above)
	}
	return sweep.Map(len(cells), 0, func(i int) MTUFlowRow {
		opts := s.throughputOpts()
		if cells[i].mtu > 0 {
			opts.MTU = cells[i].mtu
		}
		if cells[i].flows > 0 {
			opts.Flows = cells[i].flows
		}
		opts.Degree = 3
		opts.DDIO = ddio
		opts.HostCC = hostcc
		tb := New(opts)
		tb.StartNetAppT()
		m := tb.RunWindow()
		return MTUFlowRow{MTU: opts.MTU, Flows: opts.Flows, DDIO: ddio, HostCC: hostcc, M: m}
	})
}

// RunFigure3 reproduces Figure 3: baseline impact worsens with MTU size
// and number of flows (DDIO off and on).
func RunFigure3(s Scale) []MTUFlowRow {
	rows := RunMTUFlowSweep(s, false, false)
	return append(rows, RunMTUFlowSweep(s, true, false)...)
}

// RunFigure11 reproduces Figure 11: hostCC holds its benefits across MTU
// sizes and flow counts.
func RunFigure11(s Scale) []MTUFlowRow {
	rows := RunMTUFlowSweep(s, false, false)
	return append(rows, RunMTUFlowSweep(s, false, true)...)
}

// ---------------------------------------------------------------------------
// Figures 4, 12, 15: RPC tail latency.

// LatencyRow is one whisker of the latency figures.
type LatencyRow struct {
	SizeBytes int
	Scenario  string // "uncongested", "congested", "congested+hostcc"
	DDIO      bool
	P50us     float64
	P90us     float64
	P99us     float64
	P999us    float64
	P9999us   float64
	MaxUs     float64
	Timeouts  int64
	Completed int
}

func (r LatencyRow) String() string {
	return fmt.Sprintf("size=%-6d %-17s p50=%8.1fus p99=%9.1fus p99.9=%10.1fus max=%10.1fus timeouts=%d n=%d",
		r.SizeBytes, r.Scenario, r.P50us, r.P99us, r.P999us, r.MaxUs, r.Timeouts, r.Completed)
}

// latencyScenario runs NetApp-L against one background configuration.
func latencyScenario(s Scale, size int, scenario string, ddio bool) LatencyRow {
	opts := DefaultConfig()
	opts.DDIO = ddio
	opts.MinRTO = s.LatencyMinRTO // 0 keeps the real 200 ms
	switch scenario {
	case "uncongested":
		// NetApp-T + NetApp-L, no MApp.
	case "congested":
		opts.Degree = 3
	case "congested+hostcc":
		opts.Degree = 3
		opts.HostCC = true
	default:
		panic("testbed: unknown latency scenario " + scenario)
	}
	tb := New(opts)
	tb.StartNetAppT()
	done := false
	l := tb.StartNetAppL(size, 0, nil)
	tb.E.RunUntil(s.LatencyWarmup)
	l.SetRecording(true)
	base := l.Completed()
	// Budget: a few ms per RPC on average plus slack for RTO tails. An
	// unlucky backoff cascade must not turn one whisker into billions of
	// simulated events; the row reports how many RPCs actually completed.
	deadline := tb.E.Now() + sim.Time(s.RPCCount)*3*sim.Millisecond + 500*sim.Millisecond
	for !done && tb.E.Now() < deadline {
		tb.E.RunFor(2 * sim.Millisecond)
		if l.Completed()-base >= s.RPCCount {
			done = true
		}
	}
	h := l.Latency
	return LatencyRow{
		SizeBytes: size,
		Scenario:  scenario,
		DDIO:      ddio,
		P50us:     h.Quantile(0.50) / 1000,
		P90us:     h.Quantile(0.90) / 1000,
		P99us:     h.Quantile(0.99) / 1000,
		P999us:    h.Quantile(0.999) / 1000,
		P9999us:   h.Quantile(0.9999) / 1000,
		MaxUs:     h.Max() / 1000,
		Timeouts:  l.Conn().Timeouts.Total(),
		Completed: int(h.Count()),
	}
}

// RunFigure4 reproduces Figure 4: baseline DCTCP RPC latency with and
// without host congestion (DDIO off). The whiskers run in parallel.
func RunFigure4(s Scale) []LatencyRow {
	scenarios := []string{"uncongested", "congested"}
	return sweep.Map2(len(s.RPCSizes), len(scenarios), 0, func(r, c int) LatencyRow {
		return latencyScenario(s, s.RPCSizes[r], scenarios[c], false)
	})
}

// RunFigure12 reproduces Figure 12: hostCC restores near-uncongested tail
// latency (DDIO off). The whiskers run in parallel.
func RunFigure12(s Scale) []LatencyRow {
	scenarios := []string{"uncongested", "congested", "congested+hostcc"}
	return sweep.Map2(len(s.RPCSizes), len(scenarios), 0, func(r, c int) LatencyRow {
		return latencyScenario(s, s.RPCSizes[r], scenarios[c], false)
	})
}

// RunFigure15 reproduces Figure 15: the DDIO-enabled latency results.
func RunFigure15(s Scale) []LatencyRow {
	scenarios := []string{"uncongested", "congested", "congested+hostcc"}
	return sweep.Map2(len(s.RPCSizes), len(scenarios), 0, func(r, c int) LatencyRow {
		return latencyScenario(s, s.RPCSizes[r], scenarios[c], true)
	})
}

// ---------------------------------------------------------------------------
// Figure 7: signal read latency CDFs.

// SignalLatencyCDF is one curve of Figure 7.
type SignalLatencyCDF struct {
	Congested bool
	ValuesUs  []float64
	Fractions []float64
	MeanUs    float64
	MaxUs     float64
}

// RunFigure7 reproduces Figure 7: MSR read latency is sub-µs and
// independent of host congestion.
func RunFigure7(s Scale) []SignalLatencyCDF {
	return sweep.Map(2, 0, func(i int) SignalLatencyCDF {
		congested := i == 1
		opts := s.throughputOpts()
		if congested {
			opts.Degree = 3
		}
		tb := New(opts)
		tb.StartNetAppT()
		tb.E.RunUntil(opts.Warmup + opts.Measure)
		vals, fracs := tb.HCC.ReadLatency.CDF()
		us := make([]float64, len(vals))
		for j, v := range vals {
			us[j] = v / 1000
		}
		return SignalLatencyCDF{
			Congested: congested,
			ValuesUs:  us,
			Fractions: fracs,
			MeanUs:    tb.HCC.ReadLatency.Mean() / 1000,
			MaxUs:     tb.HCC.ReadLatency.Max() / 1000,
		}
	})
}

// ---------------------------------------------------------------------------
// Figures 8, 18(b-d), 19: microscopic time series.

// Trace holds sampled signal series for one configuration.
type Trace struct {
	Label string
	IS    *stats.Series // IIO occupancy signal
	BS    *stats.Series // PCIe bandwidth signal (Gbps)
	Level *stats.Series // host-local response level
}

// traceRun samples hostCC's signals every µs for the window.
func traceRun(opts Config, label string, warmup, window sim.Time) Trace {
	tb := New(opts)
	tb.StartNetAppT()
	tb.E.RunUntil(warmup)
	rec := stats.NewRecorder(tb.E, sim.Microsecond)
	tr := Trace{
		Label: label,
		IS:    rec.Track("iio_occupancy", tb.HCC.IS),
		BS:    rec.Track("pcie_bw_gbps", func() float64 { return tb.HCC.BS().Gbps() }),
		Level: rec.Track("response_level", func() float64 { return float64(tb.Receiver.MBA.Level()) }),
	}
	tb.E.RunFor(window)
	rec.Stop()
	return tr
}

// RunFigure8 reproduces Figure 8: I_S and B_S over 1 ms without and with
// 3x host congestion (baseline DCTCP).
func RunFigure8(s Scale) []Trace {
	o1 := s.throughputOpts()
	o2 := s.throughputOpts()
	o2.Degree = 3
	return []Trace{
		traceRun(o1, "no-host-congestion", o1.Warmup, sim.Millisecond),
		traceRun(o2, "3x-host-congestion", o2.Warmup, sim.Millisecond),
	}
}

// AblationRow is one bar of Figure 18(a).
type AblationRow struct {
	Mode  core.Mode
	M     Metrics
	Trace Trace
}

func (r AblationRow) String() string {
	return fmt.Sprintf("mode=%-10s tput=%6.1fG drop=%8.4f%% IS=%5.1f BS=%6.1fG",
		r.Mode, r.M.ThroughputGbps, r.M.DropRatePct, r.M.AvgIS, r.M.AvgBSGbps)
}

// RunFigure18 reproduces Figure 18: each of hostCC's responses (ECN echo,
// host-local response) is necessary; together they give high throughput
// and low drops. Each mode also yields a 1 ms trace (Figs 18b-d).
func RunFigure18(s Scale) []AblationRow {
	var rows []AblationRow
	for _, mode := range []core.Mode{core.ModeEchoOnly, core.ModeLocalOnly, core.ModeFull} {
		opts := s.throughputOpts()
		opts.Degree = 3
		opts.HostCC = true
		opts.Mode = mode
		// The partial modes take longer to exit the startup transient
		// (without the echo, early recovery rounds suffer repeated RTO
		// backoff), so the ablation warms up longer.
		opts.Warmup = s.Warmup + 100*sim.Millisecond
		tb := New(opts)
		tb.StartNetAppT()
		m := tb.RunWindow()
		// Record the 1 ms trace from the same steady-state run.
		rec := stats.NewRecorder(tb.E, sim.Microsecond)
		tr := Trace{
			Label: mode.String(),
			IS:    rec.Track("iio_occupancy", tb.HCC.IS),
			BS:    rec.Track("pcie_bw_gbps", func() float64 { return tb.HCC.BS().Gbps() }),
			Level: rec.Track("response_level", func() float64 { return float64(tb.Receiver.MBA.Level()) }),
		}
		tb.E.RunFor(sim.Millisecond)
		rec.Stop()
		rows = append(rows, AblationRow{Mode: mode, M: m, Trace: tr})
	}
	return rows
}

// RunFigure19 reproduces Figure 19: steady-state hostCC over 250 µs —
// PCIe bandwidth hugs B_T while the response level oscillates (3<->4 on
// the paper's hardware) and I_S stays below I_T.
func RunFigure19(s Scale) Trace {
	opts := s.throughputOpts()
	opts.Degree = 3
	opts.HostCC = true
	return traceRun(opts, "steady-state", opts.Warmup+5*sim.Millisecond, 250*sim.Microsecond)
}

// ---------------------------------------------------------------------------
// Figure 9: MBA efficacy with hard-coded response levels.

// MBARow is one level of Figure 9.
type MBARow struct {
	Level        int
	DDIO         bool
	NetGbps      float64
	MAppTputGbps float64
	MemUtilNet   float64
	MemUtilMApp  float64
}

func (r MBARow) String() string {
	return fmt.Sprintf("level=%d ddio=%-5v net=%6.1fG mappTput=%6.1fG memNet=%.2f memMApp=%.2f",
		r.Level, r.DDIO, r.NetGbps, r.MAppTputGbps, r.MemUtilNet, r.MemUtilMApp)
}

// RunFigure9 reproduces Figure 9: NetApp-T and MApp throughput at each
// hard-coded host-local response level, 3x congestion, in parallel.
func RunFigure9(s Scale) []MBARow {
	return sweep.Map2(2, 5, 0, func(d, level int) MBARow {
		ddio := d == 1
		opts := s.throughputOpts()
		opts.DDIO = ddio
		opts.Degree = 3
		opts.FixedLevel = level
		tb := New(opts)
		tb.StartNetAppT()
		m := tb.RunWindow()
		return MBARow{
			Level:        level,
			DDIO:         ddio,
			NetGbps:      m.ThroughputGbps,
			MAppTputGbps: m.MAppTputGbps,
			MemUtilNet:   m.MemUtilNet,
			MemUtilMApp:  m.MemUtilMApp,
		}
	})
}

// ---------------------------------------------------------------------------
// Figure 13: incast (network congestion), with and without host congestion.

// IncastRow is one cell of Figure 13.
type IncastRow struct {
	FlowsTotal int
	Degree     float64
	HostCC     bool
	M          Metrics
}

func (r IncastRow) String() string {
	return fmt.Sprintf("incast=%-2d degree=%gx hostcc=%-5v tput=%6.1fG nicDrop=%8.4f%% swDrop=%8.4f%%",
		r.FlowsTotal, r.Degree, r.HostCC, r.M.ThroughputGbps, r.M.DropRatePct, r.M.SwitchDropPct)
}

// RunFigure13 reproduces Figure 13: two senders incast into one receiver;
// the degree of incast is the number of concurrent flows (4 -> 1x ...
// 10 -> 2.5x). Panel (a): no host congestion; panel (b): 3x.
func RunFigure13(s Scale) []IncastRow {
	type cell struct {
		degree float64
		hostcc bool
		flows  int
	}
	var cells []cell
	for _, degree := range []float64{0, 3} {
		for _, hostcc := range []bool{false, true} {
			for _, flows := range []int{4, 6, 8, 10} {
				cells = append(cells, cell{degree, hostcc, flows})
			}
		}
	}
	return sweep.Map(len(cells), 0, func(i int) IncastRow {
		c := cells[i]
		opts := s.throughputOpts()
		opts.Senders = 2
		opts.Flows = c.flows
		opts.Degree = c.degree
		opts.HostCC = c.hostcc
		tb := New(opts)
		tb.StartNetAppT()
		m := tb.RunWindow()
		return IncastRow{FlowsTotal: c.flows, Degree: c.degree, HostCC: c.hostcc, M: m}
	})
}

// ---------------------------------------------------------------------------
// Figures 16 and 17: sensitivity to hostCC's two parameters.

// SensitivityRow is one point of the B_T / I_T sweeps.
type SensitivityRow struct {
	BTGbps float64
	IT     float64
	M      Metrics
}

func (r SensitivityRow) String() string {
	return fmt.Sprintf("BT=%3.0fG IT=%3.0f tput=%6.1fG drop=%8.4f%% memNet=%.2f memMApp=%.2f",
		r.BTGbps, r.IT, r.M.ThroughputGbps, r.M.DropRatePct, r.M.MemUtilNet, r.M.MemUtilMApp)
}

// RunFigure16 reproduces Figure 16: hostCC across target bandwidths B_T.
func RunFigure16(s Scale) []SensitivityRow {
	return sweep.Map(10, 0, func(i int) SensitivityRow {
		bt := float64(i+1) * 10
		opts := s.throughputOpts()
		opts.Degree = 3
		opts.HostCC = true
		opts.BT = sim.Gbps(bt)
		tb := New(opts)
		tb.StartNetAppT()
		m := tb.RunWindow()
		return SensitivityRow{BTGbps: bt, IT: 70, M: m}
	})
}

// RunFigure17 reproduces Figure 17: hostCC across occupancy thresholds I_T.
func RunFigure17(s Scale) []SensitivityRow {
	its := []float64{70, 75, 80, 85, 90}
	return sweep.Map(len(its), 0, func(i int) SensitivityRow {
		opts := s.throughputOpts()
		opts.Degree = 3
		opts.HostCC = true
		opts.IT = its[i]
		tb := New(opts)
		tb.StartNetAppT()
		m := tb.RunWindow()
		return SensitivityRow{BTGbps: 80, IT: its[i], M: m}
	})
}

// RunNetAppTOnly is a convenience for examples: one throughput run.
func RunNetAppTOnly(opts Config) Metrics {
	tb := New(opts)
	tb.StartNetAppT()
	return tb.RunWindow()
}

var _ = apps.NetAppTPort // keep the apps dependency explicit
