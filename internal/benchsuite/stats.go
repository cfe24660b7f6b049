// Statistics for the repo benchmark's repeated runs. Everything here uses
// the *sample* standard deviation (÷ n−1, Bessel's correction), because
// the measurement runs are a sample of the benchmark's latency
// distribution, not the whole population — the opposite convention from
// internal/metrics, whose Summarize/Accumulator deliberately use the
// population form (÷ n) over complete simulation outcomes. Both contracts
// are documented at their definitions and cross-checked by tests.
package benchsuite

import (
	"math"
	"sort"
)

// Stats summarizes one benchmark's measurement runs.
type Stats struct {
	Runs       int     `json:"runs"`
	MinSeconds float64 `json:"min_seconds"`
	P50Seconds float64 `json:"p50_seconds"`
	P95Seconds float64 `json:"p95_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
	MaxSeconds float64 `json:"max_seconds"`
	Mean       float64 `json:"mean_seconds"`
	// Stddev is the sample standard deviation (÷ n−1); 0 for n < 2.
	Stddev float64 `json:"sample_stddev_seconds"`
	// CV is the coefficient of variation, Stddev/Mean: the run-to-run
	// noise as a fraction of the measurement itself. A CV above ~0.10
	// means the machine was too noisy for tight comparisons.
	CV float64 `json:"cv"`
}

// Compute summarizes runs (seconds per measurement run). The input is not
// modified.
func Compute(runs []float64) Stats {
	n := len(runs)
	if n == 0 {
		return Stats{}
	}
	v := append([]float64(nil), runs...)
	sort.Float64s(v)
	var sum float64
	for _, x := range v {
		sum += x
	}
	mean := sum / float64(n)
	var sq float64
	for _, x := range v {
		d := x - mean
		sq += d * d
	}
	var stddev float64
	if n > 1 {
		stddev = math.Sqrt(sq / float64(n-1))
	}
	cv := 0.0
	if mean > 0 {
		cv = stddev / mean
	}
	return Stats{
		Runs:       n,
		MinSeconds: v[0],
		P50Seconds: quantile(v, 0.5),
		P95Seconds: quantile(v, 0.95),
		P99Seconds: quantile(v, 0.99),
		MaxSeconds: v[n-1],
		Mean:       mean,
		Stddev:     stddev,
		CV:         cv,
	}
}

// quantile interpolates the q-th quantile of sorted values — the same
// rank convention as internal/metrics.quantile, restated here so the two
// packages can evolve their conventions independently.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
