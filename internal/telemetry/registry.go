// Package telemetry is the unified observability layer over the
// simulator: a registry of named instruments that every device model
// registers into, and a structured event tracer that records
// packet-lifecycle spans (per-hop residence with stall cause) and
// on-change counter tracks, exportable as Chrome-trace/Perfetto JSON.
//
// Two invariants shape the design (see DESIGN.md "Telemetry"):
//
//   - Zero disabled-path cost. Components hold a nil *Tracer / nil *Track
//     by default; every hot-path hook is a single nil check. The registry
//     is pull-based — registration stores closures, reads happen only
//     when a consumer asks — so registering instruments costs nothing
//     per event.
//
//   - No perturbation. Telemetry only reads simulation state from within
//     existing event handlers; it never schedules events, draws random
//     numbers, or mutates the datapath, so event order, RNG streams and
//     state digests are bit-identical with telemetry on or off.
package telemetry

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// Kind classifies an instrument.
type Kind int

// Instrument kinds.
const (
	// KindCounter is a monotonically non-decreasing event or quantity
	// count (arrivals, drops, bytes).
	KindCounter Kind = iota
	// KindGauge is an instantaneous value (queue depth, credits, level).
	KindGauge
	// KindHistogram is a latency/size distribution.
	KindHistogram
	// KindSeries is a time-weighted running value (occupancy averages).
	KindSeries
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	case KindSeries:
		return "series"
	}
	return "unknown"
}

// Instrument is one named, readable metric. Scalar kinds read through a
// closure; histograms expose the underlying distribution.
type Instrument struct {
	Name string
	Kind Kind
	Unit string
	Help string

	read func() float64
	hist *stats.Histogram
}

// Value returns the instrument's current scalar value. For histograms it
// returns the observation count (use Histogram for quantiles).
func (i *Instrument) Value() float64 {
	if i.hist != nil {
		return float64(i.hist.Count())
	}
	return i.read()
}

// Histogram returns the underlying distribution, or nil for scalar kinds.
func (i *Instrument) Histogram() *stats.Histogram { return i.hist }

// Registry is a catalogue of instruments, keyed by slash-separated names
// ("receiver/nic/drops"). A nil *Registry is valid and ignores all
// registrations, so components register unconditionally.
type Registry struct {
	by     map[string]*Instrument
	blocks [][]Instrument // the instruments, in registration order
}

// instrumentBlock is how many instruments a registry allocates at once: a
// testbed registers thousands, and blocks that never move keep both the
// registration order and stable pointers without a growing index.
const instrumentBlock = 64

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{by: make(map[string]*Instrument)}
}

func (r *Registry) add(in Instrument) {
	if r == nil {
		return
	}
	if _, dup := r.by[in.Name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate instrument %q", in.Name))
	}
	n := len(r.blocks)
	if n == 0 || len(r.blocks[n-1]) == instrumentBlock {
		r.blocks = append(r.blocks, make([]Instrument, 0, instrumentBlock))
		n++
	}
	b := append(r.blocks[n-1], in)
	r.blocks[n-1] = b
	r.by[in.Name] = &b[len(b)-1]
}

// Counter registers a monotonic counter read through fn.
func (r *Registry) Counter(name, unit, help string, fn func() float64) {
	r.add(Instrument{Name: name, Kind: KindCounter, Unit: unit, Help: help, read: fn})
}

// Gauge registers an instantaneous value read through fn.
func (r *Registry) Gauge(name, unit, help string, fn func() float64) {
	r.add(Instrument{Name: name, Kind: KindGauge, Unit: unit, Help: help, read: fn})
}

// Series registers a time-weighted running value read through fn.
func (r *Registry) Series(name, unit, help string, fn func() float64) {
	r.add(Instrument{Name: name, Kind: KindSeries, Unit: unit, Help: help, read: fn})
}

// Histogram registers a distribution instrument over h.
func (r *Registry) Histogram(name, unit, help string, h *stats.Histogram) {
	r.add(Instrument{Name: name, Kind: KindHistogram, Unit: unit, Help: help, hist: h,
		read: func() float64 { return float64(h.Count()) }})
}

// Get returns the named instrument.
func (r *Registry) Get(name string) (*Instrument, bool) {
	if r == nil {
		return nil, false
	}
	i, ok := r.by[name]
	return i, ok
}

// Each calls fn for every instrument in registration order.
func (r *Registry) Each(fn func(*Instrument)) {
	if r == nil {
		return
	}
	for _, b := range r.blocks {
		for k := range b {
			fn(&b[k])
		}
	}
}

// Names returns all instrument names, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	out := make([]string, 0, len(r.by))
	for name := range r.by {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered instruments.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.by)
}
