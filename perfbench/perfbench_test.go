package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFileMatchesProgram checks that BENCHMARK.json lists
// exactly the workloads and metrics the program prints, in its order and
// with its units, and that every name and unit is well formed.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: file %q, program %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, program %d and %d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(name, unit, better string, def metricDef) {
		if name != def.name || unit != def.unit {
			t.Errorf("metric %s [%s] in file, program prints %s [%s]", name, unit, def.name, def.unit)
		}
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) {
			t.Errorf("metric %q unit %q: malformed", name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("metric %s: better %q", name, better)
		}
		if seen[name] {
			t.Errorf("metric %s listed twice", name)
		}
		seen[name] = true
	}
	for i, m := range bf.EndToEnd {
		check(m.Name, m.Unit, m.Better, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range bf.PerLayer {
		check(m.Name, m.Unit, m.Better, perLayer[i])
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// parseResult splits a printed report into its last-line result and the
// model line.
func parseResult(t *testing.T, out string) (result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}, modelLine map[string]any) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	for _, l := range lines[:len(lines)-1] {
		var m map[string]map[string]any
		if json.Unmarshal([]byte(l), &m) == nil && m["model"] != nil {
			modelLine = m["model"]
		}
	}
	if modelLine == nil {
		t.Fatalf("no model line in %q", out)
	}
	return result, modelLine
}

// TestSmokeEveryWorkload runs each workload on a short simulated window
// in both modes: every metric BENCHMARK.json names is printed with its
// unit, no run fails, and two invocations with one seed print one digest.
func TestSmokeEveryWorkload(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			digests := map[string]bool{}
			for _, traced := range []bool{false, true} {
				rep, err := bench(w, 7, 0, traced, true, os.Stderr)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := rep.print(&out); err != nil {
					t.Fatal(err)
				}
				res, model := parseResult(t, out.String())
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace=%t: correct=%t attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				want := map[string]string{}
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
				if traced {
					want = map[string]string{}
					for _, m := range bf.PerLayer {
						want[m.Name] = m.Unit
					}
					if v := res.Metrics["fail_frac"].Value; v != 0 {
						t.Errorf("fail_frac = %v", v)
					}
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok || got.Unit != unit {
						t.Errorf("trace=%t: metric %s [%s] printed as %+v (present %t)", traced, name, unit, got, ok)
					}
				}
				for name := range res.Metrics {
					if !nameRE.MatchString(name) {
						t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", name)
					}
					if _, ok := want[name]; !ok {
						t.Errorf("trace=%t: metric %s printed but not in BENCHMARK.json", traced, name)
					}
				}
				digests[model["model.digest"].(string)] = true
			}
			if len(digests) != 1 {
				t.Errorf("two invocations with one seed printed digests %v", digests)
			}
		})
	}
}

// TestTraceShares checks the traced metrics the acceptance rests on: a
// per-layer self share for each layer and the tracing overhead.
func TestTraceShares(t *testing.T) {
	w, _ := workloadByName("fluid-background")
	rep, err := bench(w, 3, 0, true, true, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	var sum float64
	for _, m := range rep.metrics {
		vals[m.name] = m.value
		if strings.HasSuffix(m.name, ".self_share") {
			sum += m.value
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("self shares sum to %v, want 1", sum)
	}
	if vals["trace.overhead"] <= 0 {
		t.Errorf("trace.overhead = %v", vals["trace.overhead"])
	}
	if vals["fluid.ticks"] == 0 || vals["snapshot.digest_calls"] == 0 {
		t.Errorf("fluid.ticks %v, snapshot.digest_calls %v", vals["fluid.ticks"], vals["snapshot.digest_calls"])
	}
}

func TestPackageOf(t *testing.T) {
	for sym, want := range map[string]string{
		"repro/internal/sim.(*Engine).RunUntil":                                "repro/internal/sim",
		"repro/internal/ring.(*Queue[go.shape.*repro/internal/packet.P]).Push": "repro/internal/ring",
		"repro/internal/testbed.New.func3":                                     "repro/internal/testbed",
		"runtime.mallocgc":                                                     "runtime",
		"sync/atomic.(*Int64).Add":                                             "sync/atomic",
		"main.spin":                                                            "main",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

var sink uint64

// spin keeps its state in a register, so even a race-instrumented build
// spends the loop in this package rather than in the detector.
func spin(d time.Duration) uint64 {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 100000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestFlatByPackage profiles a busy loop and checks the decoder puts the
// time in this package.
func TestFlatByPackage(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	sink = spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	flat, err := flatByPackage(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, s := range flat {
		total += s
	}
	if total == 0 || flat["repro/perfbench"]+flat["main"] < total/2 {
		t.Errorf("busy loop not attributed to this package: %v", flat)
	}
}
