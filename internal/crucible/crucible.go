// Package crucible is a deterministic chaos-search harness: it generates
// valid random scenarios (topology × congestion control × workload ×
// fault plan) from a single seed, runs each against an oracle battery
// (conservation invariants, liveness verdicts, replay determinism,
// snapshot round-trips, goodput-floor and tail-latency properties), and
// delta-debugs any failure down to a minimal self-contained JSON repro
// that replays bit-for-bit.
//
// Everything downstream of a seed is deterministic: the generator draws
// from its own seeded RNG, the testbed run is a pure function of the
// scenario, and the shrinker only accepts transforms that preserve the
// exact failure signature. A repro file therefore carries everything
// needed to reproduce a finding on any machine, forever.
package crucible

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/transport"
)

// CanaryPCIeExtraCredit names the deliberately planted off-by-one in the
// PCIe credit-return path (pcie.Link.ArmCanaryExtraCredit): clearing a
// credit stall returns one line more than was sequestered. It exists so
// the harness can prove, in CI, that the search finds a real injected
// bug and shrinks it — the crucible's own self-test.
const CanaryPCIeExtraCredit = "pcie-extra-credit"

// Injection is the JSON form of one faults.Injection. Kind uses the
// stable string names (faults.Kind.String / faults.ParseKind) so repro
// files survive any renumbering of the Kind enum.
type Injection struct {
	Kind       string  `json:"kind"`
	AtNs       int64   `json:"at_ns"`
	DurationNs int64   `json:"duration_ns"`
	PeriodNs   int64   `json:"period_ns,omitempty"`
	Count      int     `json:"count,omitempty"`
	Prob       float64 `json:"prob,omitempty"`
	Magnitude  float64 `json:"magnitude,omitempty"`
}

// Oracles configures the property oracles that need thresholds. The
// structural oracles (panic, invariant, liveness, determinism, snapshot)
// are always armed.
type Oracles struct {
	// GoodputFloorPct, when > 0, requires NetApp-T goodput to return to
	// this percentage of the pre-fault baseline within RecoveryRTTBudget
	// RTTs of the last fault window clearing.
	GoodputFloorPct float64 `json:"goodput_floor_pct,omitempty"`
	// RecoveryRTTBudget bounds the recovery probe (default 150 RTTs).
	RecoveryRTTBudget int `json:"recovery_rtt_budget,omitempty"`
	// VictimP999Ns, when > 0, runs a victim RPC app beside the load and
	// requires its P99.9 completion time to stay at or below this bound.
	VictimP999Ns int64 `json:"victim_p999_ns,omitempty"`
}

// Scenario is one self-contained chaos experiment: the full testbed
// shape, workload, fault plan and oracle thresholds, JSON-serializable
// so a failing draw can be checked in verbatim as a regression repro.
type Scenario struct {
	Seed     int64  `json:"seed"`
	Topology string `json:"topology"` // "star", "leafspine", "dumbbell"
	Lossless bool   `json:"lossless,omitempty"`
	// PauseWatchdogNs arms the PFC watchdog on lossless fabrics (0 leaves
	// a lost XON wedged — the storm failure mode).
	PauseWatchdogNs int64  `json:"pause_watchdog_ns,omitempty"`
	CC              string `json:"cc"` // a transport scheme name ("dctcp", "reno", "cubic", "dcqcn", "delay", "bbr", "hpcc")

	Senders   int     `json:"senders"`
	Receivers int     `json:"receivers,omitempty"` // 0 = 1
	Flows     int     `json:"flows"`
	Degree    float64 `json:"degree"` // MApp units at each receiver
	MTU       int     `json:"mtu,omitempty"`
	HostCC    bool    `json:"hostcc"`
	// FaultTrunks aims link-flap injections at the inter-switch trunks
	// (requires a multi-switch topology).
	FaultTrunks bool `json:"fault_trunks,omitempty"`

	WarmupNs  int64 `json:"warmup_ns"`
	MeasureNs int64 `json:"measure_ns"`

	Faults  []Injection `json:"faults"`
	Oracles Oracles     `json:"oracles"`

	// Canary arms a planted bug for the harness's self-test (see
	// CanaryPCIeExtraCredit). Never set outside that test path.
	Canary string `json:"canary,omitempty"`
}

// Plan converts the JSON fault list back into a faults.Plan.
func (s Scenario) Plan() (faults.Plan, error) {
	p := faults.Plan{Name: "crucible"}
	for i, inj := range s.Faults {
		k, err := faults.ParseKind(inj.Kind)
		if err != nil {
			return faults.Plan{}, fmt.Errorf("crucible: fault %d: %w", i, err)
		}
		p.Injections = append(p.Injections, faults.Injection{
			Kind:      k,
			At:        sim.Time(inj.AtNs),
			Duration:  sim.Time(inj.DurationNs),
			Period:    sim.Time(inj.PeriodNs),
			Count:     inj.Count,
			Prob:      inj.Prob,
			Magnitude: inj.Magnitude,
		})
	}
	return p, nil
}

// hasKind reports whether the scenario injects the named fault kind.
func (s Scenario) hasKind(name string) bool {
	for _, inj := range s.Faults {
		if inj.Kind == name {
			return true
		}
	}
	return false
}

// ccFactory resolves the congestion-control name through the transport
// scheme registry (the single naming authority); "" means dctcp.
func ccFactory(name string) (transport.CCFactory, error) {
	if name == "" {
		name = "dctcp"
	}
	s, err := transport.SchemeByName(name)
	if err != nil {
		return nil, fmt.Errorf("crucible: %w", err)
	}
	return s.Factory(), nil
}

// testbedConfig compiles the scenario into a testbed configuration. The
// mapping is a pure function of the scenario, which is what makes repro
// files self-contained. Pause-storm scenarios are pinned to the 2-leaf
// 1-spine fabric with the sender rack's trunk pair stormed — the one
// shape where the storm provably freezes all cross-rack traffic.
func (s Scenario) testbedConfig() (testbed.Config, error) {
	plan, err := s.Plan()
	if err != nil {
		return testbed.Config{}, err
	}
	if err := plan.Validate(); err != nil {
		return testbed.Config{}, err
	}
	kind, err := fabric.ParseTopologyKind(s.Topology)
	if err != nil {
		return testbed.Config{}, err
	}
	cc, err := ccFactory(s.CC)
	if err != nil {
		return testbed.Config{}, err
	}
	if s.Canary != "" && s.Canary != CanaryPCIeExtraCredit {
		return testbed.Config{}, fmt.Errorf("crucible: unknown canary %q", s.Canary)
	}

	opts := testbed.DefaultConfig()
	opts.Seed = s.Seed
	opts.Topology = fabric.Topology{Kind: kind}
	opts.Senders = s.Senders
	opts.Receivers = s.Receivers
	opts.Flows = s.Flows
	opts.Degree = s.Degree
	if s.MTU > 0 {
		opts.MTU = s.MTU
	}
	opts.CC = cc
	opts.HostCC = s.HostCC
	if s.HostCC {
		wd := core.DefaultWatchdogConfig()
		opts.Watchdog = &wd
	}
	opts.Lossless = s.Lossless
	opts.PauseWatchdog = sim.Time(s.PauseWatchdogNs)
	opts.FaultTrunks = s.FaultTrunks
	// RTO-driven recovery (flaps kill in-flight windows) must settle
	// inside an affordable horizon; same choice as the chaos harness.
	opts.MinRTO = sim.Millisecond
	opts.Invariants = true
	opts.Faults = &plan
	opts.Warmup = sim.Time(s.WarmupNs)
	opts.Measure = sim.Time(s.MeasureNs)

	if s.hasKind("pause-storm") {
		opts.Lossless = true
		opts.Topology = fabric.Topology{Kind: fabric.TopoLeafSpine, Leaves: 2, Spines: 1}
		// Storm the trunk pair of leaf 1 (the sender rack) to spine 0.
		up, down := opts.Topology.TrunkPair(1, 0)
		opts.StormTrunks = []int{up, down}
	}
	if err := opts.Validate(); err != nil {
		return testbed.Config{}, err
	}
	if opts.Warmup <= 0 || opts.Measure <= 0 {
		return testbed.Config{}, fmt.Errorf("crucible: scenario needs positive warmup and measure windows")
	}
	return opts, nil
}

// Validate reports the first reason the scenario cannot run: an unknown
// kind/topology/CC name, an ill-formed fault plan, or testbed parameters
// the builder would reject.
func (s Scenario) Validate() error {
	_, err := s.testbedConfig()
	return err
}
