package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a log-bucketed histogram of non-negative values, built for
// latency distributions spanning nanoseconds to seconds (the paper's
// Figure 4 spans 10 µs to >1 s). Buckets grow geometrically, giving a
// bounded relative quantile error (~2.4% with the default 30 buckets per
// decade) at O(1) insert cost.
type Histogram struct {
	perDecade int
	base      float64 // log growth factor: 10^(1/perDecade)
	counts    []int64
	n         int64
	min, max  float64
	sum       float64
	zero      int64 // values <= 0 land here
}

// NewHistogram returns a histogram with the given buckets per decade
// (30 is a good default).
func NewHistogram(perDecade int) *Histogram {
	if perDecade <= 0 {
		panic("stats: perDecade must be positive")
	}
	return &Histogram{
		perDecade: perDecade,
		base:      math.Pow(10, 1/float64(perDecade)),
		min:       math.Inf(1),
		max:       math.Inf(-1),
	}
}

func (h *Histogram) bucketOf(v float64) int {
	// bucket i covers [base^i, base^(i+1)); shift so v=1 lands at index
	// offset. We offset by a large constant so sub-1 values stay in range.
	const offset = 600 // covers down to 10^-20
	i := int(math.Floor(math.Log(v)/math.Log(h.base))) + offset
	if i < 0 {
		i = 0
	}
	return i
}

func (h *Histogram) valueOf(bucket int) float64 {
	const offset = 600
	// Return the geometric midpoint of the bucket.
	return math.Pow(h.base, float64(bucket-offset)+0.5)
}

// growSlack is how many spare buckets a histogram reserves when it grows,
// so a rising tail does not reallocate once per new bucket.
const growSlack = 16

// Add records one observation.
func (h *Histogram) Add(v float64) {
	h.n++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if v <= 0 {
		h.zero++
		return
	}
	i := h.bucketOf(v)
	if i >= len(h.counts) {
		// The length is the highest bucket seen (Snapshot encodes it);
		// spare capacity past it is never written, so it holds zeros.
		if i >= cap(h.counts) {
			grown := make([]int64, i+1, i+1+growSlack)
			copy(grown, h.counts)
			h.counts = grown
		}
		h.counts = h.counts[:i+1]
	}
	h.counts[i]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Mean returns the mean of observations (exact, not bucketed).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min and Max return exact extremes.
func (h *Histogram) Min() float64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact maximum observation.
func (h *Histogram) Max() float64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-quantile (q in [0,1]) with bounded relative error.
// The exact min and max are returned for q=0 and q=1.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank <= h.zero {
		return 0
	}
	seen := h.zero
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := h.valueOf(i)
			// Clamp into the exact observed range to avoid bucket
			// midpoints exceeding the true extremes.
			return math.Min(math.Max(v, h.min), h.max)
		}
	}
	return h.Max()
}

// Percentiles is shorthand for common tail percentiles
// {P50, P90, P99, P99.9, P99.99} — the whiskers in Figures 4, 12 and 15.
func (h *Histogram) Percentiles() [5]float64 {
	return [5]float64{
		h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99),
		h.Quantile(0.999), h.Quantile(0.9999),
	}
}

// CDF returns (value, cumulative fraction) points for plotting, one per
// non-empty bucket (used for the Figure 7 measurement-latency CDFs).
func (h *Histogram) CDF() (values, fractions []float64) {
	if h.n == 0 {
		return nil, nil
	}
	cum := h.zero
	if h.zero > 0 {
		values = append(values, 0)
		fractions = append(fractions, float64(cum)/float64(h.n))
	}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		values = append(values, h.valueOf(i))
		fractions = append(fractions, float64(cum)/float64(h.n))
	}
	return values, fractions
}

func (h *Histogram) String() string {
	p := h.Percentiles()
	return fmt.Sprintf("n=%d mean=%.3g p50=%.3g p99=%.3g p999=%.3g max=%.3g",
		h.n, h.Mean(), p[0], p[2], p[3], h.Max())
}

// ExactQuantile computes a quantile over a raw sample slice; used in tests
// to validate the histogram's bucketed estimates.
func ExactQuantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}
