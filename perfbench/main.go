// Command perfbench is the repository's benchmark. It builds one of three
// fixed workloads through the simulator's packages, runs it closed-loop
// (each run starts when the previous one ends) for a wall-clock budget,
// checks every run against an untimed replay of the same seed, and
// prints one JSON object as the last line of standard output:
// end-to-end metrics with -trace 0, per-layer metrics with -trace 1.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload star-hostcc --seed 1 --seconds 10 --trace 0
//
// Every layer is measured from outside the simulator: the benchmark
// times its own calls into exported functions, reads exported counters
// and the instrument registry, and buckets a CPU profile of traced runs
// by package. Lines before the last one give the resolved config, the
// environment and the simulated outputs (model.*), which must stay
// byte-identical across a change that only claims speed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/snapshot"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the -trace 0 metrics: host-side costs a user of the
// simulator sees, each a median over the invocation's timed runs.
var endToEnd = []metricDef{
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
}

// perLayer are the -trace 1 metrics, in print order. Layers named
// <module>.self_share are flat CPU-profile shares of repro/internal/<module>.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.max_pending", "count"},
	{"sim.heap_cap", "count"},
	{"sim.window_ms_p50", "ms"},
	{"sim.window_ms_p90", "ms"},
	{"sim.self_share", "ratio"},
	{"shard.exchanged", "count"},
	{"shard.event_imbalance", "ratio"},
	{"shard.cpu_util", "ratio"},
	{"snapshot.digest_calls", "count"},
	{"snapshot.digest_ms_p50", "ms"},
	{"snapshot.digest_share", "ratio"},
	{"snapshot.verify_s", "s"},
	{"snapshot.self_share", "ratio"},
	{"fluid.flows", "count"},
	{"fluid.ticks", "count"},
	{"fluid.promotions", "count"},
	{"fluid.floor_frac", "ratio"},
	{"fluid.self_share", "ratio"},
	{"fluid.ns_per_flow_tick", "ns"},
	{"testbed.new_allocs", "count"},
	{"testbed.new_mb", "MB"},
	{"nic.arrivals", "count"},
	{"nic.drop_frac", "ratio"},
	{"nic.self_share", "ratio"},
	{"pcie.sent", "count"},
	{"pcie.credit_stall_frac", "ratio"},
	{"pcie.self_share", "ratio"},
	{"iio.rins", "count"},
	{"iio.self_share", "ratio"},
	{"mem.bytes_mapp", "bytes"},
	{"mem.bytes_net", "bytes"},
	{"mem.self_share", "ratio"},
	{"cpu.mba_writes", "count"},
	{"cpu.self_share", "ratio"},
	{"core.samples", "count"},
	{"core.marked_frac", "ratio"},
	{"core.self_share", "ratio"},
	{"transport.retx", "count"},
	{"transport.timeouts", "count"},
	{"transport.self_share", "ratio"},
	{"apps.rpcs", "count"},
	{"apps.self_share", "ratio"},
	{"host.self_share", "ratio"},
	{"fabric.switch_drops", "count"},
	{"fabric.switch_marks", "count"},
	{"fabric.trunk_idle_frac", "ratio"},
	{"fabric.self_share", "ratio"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.allocs_per_event", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.self_share", "ratio"},
	{"other.self_share", "ratio"},
	{"fail_frac", "ratio"},
	{"trace.overhead", "ratio"},
}

// shareModules are the packages whose flat profile time is reported as
// <module>.self_share; every other package counts toward other.self_share.
var shareModules = []string{
	"sim", "snapshot", "fluid", "nic", "pcie", "iio", "mem", "cpu", "core",
	"transport", "apps", "host", "fabric",
}

func main() {
	os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr))
}

func mainCode(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed (>= 0); the simulator runs with seed+1")
	seconds := fs.Float64("seconds", 10, "wall-clock budget of the closed loop of timed runs")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced runs and per-layer metrics")
	out := fs.String("out", "", "directory for the span trace and CPU profile of a traced invocation (empty: not written)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	case *seed < 0:
		fmt.Fprintln(stderr, "perfbench: -seed must be >= 0")
		return 2
	case *seconds < 0:
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 0")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	rep, err := bench(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, false, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if *out != "" && rep.spans != nil {
		if err := rep.writeTrace(*out, w.name, *seed); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// metric is one reported value.
type metric struct {
	name, unit string
	value      float64
}

// report is the outcome of one invocation.
type report struct {
	workload  string
	seed      int64
	attempted int
	failed    int
	config    resolvedConfig
	model     model
	metrics   []metric
	spans     *spans
	profile   []byte    // the last traced run's CPU profile
	runS      []float64 // run_s of every verified untraced run, in order
}

// bench runs workload w for seed: one untimed replay that every timed
// run is verified against, then timed runs until budget is spent (at
// least one; with traced, at least one untraced and one traced, taken
// alternately). Run failures count toward failed; only a workload that
// cannot be built returns an error. Failure reasons go to log.
func bench(w workload, seed int64, budget time.Duration, traced, short bool, log io.Writer) (report, error) {
	cfg := w.config(seed+1, short)
	if err := cfg.Validate(); err != nil {
		return report{}, fmt.Errorf("workload %s: %w", w.name, err)
	}
	rep := report{workload: w.name, seed: seed}
	if traced {
		rep.spans = newSpans()
	}

	v0 := time.Now()
	ref, refErr := execute(w, cfg, nil, -1)
	v1 := time.Now()
	rep.spans.add("verify", v0, v1, -1)
	if refErr == nil {
		refErr = checkGoodput(ref)
	}
	rep.config, rep.model = ref.config, ref.model

	var plain, withTrace []run
	minRuns := 1
	if traced {
		minRuns = 2
	}
	deadline := time.Now().Add(budget)
	for i := 0; i < minRuns || time.Now().Before(deadline); i++ {
		var sp *spans
		parent := -1
		if traced && i%2 == 1 {
			sp = rep.spans
			now := time.Now()
			parent = sp.add("run", now, now, -1)
		}
		r, err := execute(w, cfg, sp, parent)
		if sp != nil {
			sp.list[parent].End = time.Now()
		}
		rep.attempted++
		if err == nil {
			err = verify(r, ref, refErr)
		}
		if err != nil {
			rep.failed++
			fmt.Fprintf(log, "perfbench: %s seed %d run %d failed: %v\n", w.name, seed, i, err)
			continue
		}
		r.timeline = nil // verified; keep only the figures
		if sp != nil {
			withTrace = append(withTrace, r)
			rep.profile = r.profile
		} else {
			plain = append(plain, r)
		}
	}

	rep.runS = pick(plain, func(r run) float64 { return r.runS })
	defs, vals := endToEnd, map[string]float64{
		"run_s":        median(rep.runS),
		"cpu_s":        median(pick(plain, func(r run) float64 { return r.cpuS })),
		"setup_s":      median(pick(plain, func(r run) float64 { return r.setupS })),
		"live_heap_mb": median(pick(plain, func(r run) float64 { return r.liveHeapMB })),
	}
	if traced {
		var err error
		defs = perLayer
		if vals, err = layerValues(plain, withTrace, v1.Sub(v0).Seconds()); err != nil {
			return rep, err
		}
		vals["fail_frac"] = float64(rep.failed) / float64(rep.attempted)
	}
	for _, d := range defs {
		rep.metrics = append(rep.metrics, metric{d.name, d.unit, vals[d.name]})
	}
	return rep, nil
}

// verify checks one timed run against the untimed replay: the same digest
// timeline frame for frame, the same final digest, and NetApp-T goodput.
func verify(r, ref run, refErr error) error {
	if refErr != nil {
		return fmt.Errorf("replay failed: %w", refErr)
	}
	if div, found := snapshot.FirstDivergence(ref.timeline, r.timeline); found {
		return fmt.Errorf("diverged from replay: %s", div)
	}
	if r.timeline.Len() != ref.timeline.Len() {
		return fmt.Errorf("%d digest frames, replay has %d", r.timeline.Len(), ref.timeline.Len())
	}
	if r.model != ref.model {
		return fmt.Errorf("outputs %+v differ from replay %+v", r.model, ref.model)
	}
	return checkGoodput(r)
}

func checkGoodput(r run) error {
	if r.model.GoodputGbps <= 0 {
		return errors.New("zero NetApp-T goodput")
	}
	return nil
}

// layerValues computes the per-layer metrics: counts from the traced
// runs' census (medians, so the few runtime counts that vary do not
// depend on which run came last), host times from the untraced runs,
// and self shares from the traced runs' merged CPU profiles.
func layerValues(plain, traced []run, verifyS float64) (map[string]float64, error) {
	vals := map[string]float64{}
	if len(plain) == 0 || len(traced) == 0 {
		return vals, nil // every run of one kind failed; fail_frac says so
	}
	for k := range traced[0].census {
		vals[k] = median(pick(traced, func(r run) float64 { return r.census[k] }))
	}
	runS := median(pick(plain, func(r run) float64 { return r.runS }))
	tracedRunS := median(pick(traced, func(r run) float64 { return r.runS }))
	cpuS := median(pick(plain, func(r run) float64 { return r.cpuS }))
	events := vals["sim.events"]

	vals["sim.ns_per_event"] = ratio(runS*1e9, events)
	var windows, digests []float64
	for _, r := range traced {
		windows = append(windows, r.windows...)
		digests = append(digests, r.digests...)
	}
	vals["sim.window_ms_p50"] = quantile(windows, 0.5)
	vals["sim.window_ms_p90"] = quantile(windows, 0.9)
	vals["shard.cpu_util"] = ratio(cpuS, runS*float64(traced[0].config.Shards))
	vals["snapshot.digest_calls"] = float64(len(traced[0].digests))
	vals["snapshot.digest_ms_p50"] = quantile(digests, 0.5)
	vals["snapshot.digest_share"] = median(pick(traced, func(r run) float64 { return ratio(r.digestS, r.runS) }))
	vals["snapshot.verify_s"] = verifyS
	vals["testbed.new_allocs"] = median(pick(traced, func(r run) float64 { return r.newAllocs }))
	vals["testbed.new_mb"] = median(pick(traced, func(r run) float64 { return r.newMB }))
	vals["trace.overhead"] = ratio(tracedRunS, runS)

	byPkg := map[string]float64{}
	var total float64
	for _, r := range traced {
		flat, err := flatByPackage(r.profile)
		if err != nil {
			return nil, err
		}
		for pkg, s := range flat {
			byPkg[pkg] += s
			total += s
		}
	}
	other := total
	for _, m := range shareModules {
		s := byPkg["repro/internal/"+m]
		vals[m+".self_share"] = ratio(s, total)
		other -= s
	}
	vals["runtime.self_share"] = ratio(byPkg["runtime"], total)
	vals["other.self_share"] = ratio(other-byPkg["runtime"], total)

	if flowTicks := vals["fluid.flows"] * vals["fluid.ticks"]; flowTicks > 0 {
		fluidS := byPkg["repro/internal/fluid"] / float64(len(traced))
		vals["fluid.ns_per_flow_tick"] = fluidS * 1e9 / flowTicks
	}
	return vals, nil
}

func pick(runs []run, f func(run) float64) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = f(r)
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks (0 for an
// empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// environment describes the machine and build that produced a report.
type environment struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	env := environment{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			env.Commit = rev + dirty
		}
	}
	return env
}

// print writes the resolved config, environment and model outputs, one
// JSON object per line, then the result object as the last line.
func (rep report) print(out io.Writer) error {
	modelLine := map[string]any{
		"model.goodput_gbps":       rep.model.GoodputGbps,
		"model.drop_pct":           rep.model.DropPct,
		"model.rpc_p99_us":         rep.model.RPCP99us,
		"model.fluid_goodput_gbps": rep.model.FluidGoodputGbps,
		"model.digest":             fmt.Sprintf("%#016x", rep.model.Digest),
	}
	for _, line := range []struct {
		key string
		v   any
	}{
		{"workload", map[string]any{"name": rep.workload, "seed": rep.seed}},
		{"config", rep.config},
		{"env", currentEnvironment()},
		{"model", modelLine},
		{"runs", map[string]any{"attempted": rep.attempted, "failed": rep.failed, "run_s": rep.runS}},
	} {
		b, err := json.Marshal(map[string]any{line.key: line.v})
		if err != nil {
			return fmt.Errorf("encode %s: %w", line.key, err)
		}
		fmt.Fprintln(out, string(b))
	}

	// The result keeps metrics in definition order, so it is assembled by
	// hand; every value is finite, with all its digits.
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`,
		rep.failed == 0, rep.attempted, rep.failed)
	for i, m := range rep.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not finite: %v", m.name, m.value)
		}
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	b.WriteString("}}")
	_, err := fmt.Fprintln(out, b.String())
	return err
}

// writeTrace writes the span trace (Chrome Trace Event Format) and the
// last traced run's CPU profile into dir.
func (rep report) writeTrace(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	if err := rep.spans.writeChrome(base + ".spans.json"); err != nil {
		return err
	}
	if err := os.WriteFile(base+".cpu.pprof", rep.profile, 0o644); err != nil {
		return fmt.Errorf("write profile: %w", err)
	}
	return nil
}
