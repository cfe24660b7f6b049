package metrics

import "math"

// Accumulator is a bounded-memory streaming Summary builder: count, mean,
// and variance are exact (running sum + Welford M2); Median/P90/P99 come
// from a fixed-resolution base-2 histogram with 16 sub-buckets per octave,
// giving ≤ ~4.4% relative error per quantile. Its footprint is constant
// (~13 KiB) regardless of how many values it absorbs, which is what lets a
// million-job simulation cell report metrics without holding per-job
// []float64 buffers.
//
// Accumulation order is whatever order Add is called in; callers that need
// reproducible floating-point results (the experiment tables) must feed
// values in a deterministic order, e.g. Manager.Jobs() registration order.
//
// Accumulator and Summarize both stay, on purpose. Summarize is the exact
// batch form over an already-materialized series: perfbench's run
// statistics, the co-reservation table's pair latencies and the workload
// trace statistics use it, and its quantiles are exact. Accumulator is
// what Collector folds every per-job series of a simulated cell into,
// streamed cells and the Figs 3–10 tables included, so a cell's memory
// does not grow with its job count. Moving the Summarize users onto
// Accumulator would shift their quantiles by up to ~4.4%; moving cells
// onto Summarize would make them hold a []float64 per job.
// TestAccumulatorMatchesSummarize pins the agreement between the two:
// Count, Min and Max equal, Mean and Stddev to floating-point rounding,
// Median/P90/P99 within 5%.
type Accumulator struct {
	count    int
	sum      float64
	mean, m2 float64 // Welford running mean and sum of squared deviations
	min, max float64

	// histogram of positive values: octave = floor(log2(x)) in
	// [histMinExp, histMaxExp), histSub sub-buckets per octave. Values ≤ 0
	// land in underflow (quantiles clamp to Min anyway).
	underflow int
	buckets   [histOctaves * histSub]int32
}

const (
	histMinExp  = -32 // 2^-32 ≈ 2e-10: below metric resolution
	histMaxExp  = 64  // 2^64 ≫ any simulated duration
	histOctaves = histMaxExp - histMinExp
	histSub     = 16 // sub-buckets per octave: 2^(1/16)−1 ≈ 4.4% max error
)

// Add absorbs one value.
//
//simlint:hotpath
func (a *Accumulator) Add(x float64) {
	if a.count == 0 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	a.count++
	a.sum += x
	d := x - a.mean
	a.mean += d / float64(a.count)
	a.m2 += d * (x - a.mean)

	if x <= 0 || math.IsNaN(x) {
		a.underflow++
		return
	}
	frac, exp := math.Frexp(x) // x = frac × 2^exp, frac ∈ [0.5, 1)
	oct := exp - 1 - histMinExp
	if oct < 0 {
		a.underflow++
		return
	}
	if oct >= histOctaves {
		oct = histOctaves - 1
	}
	sub := int((frac*2 - 1) * histSub) // [0, histSub)
	if sub >= histSub {
		sub = histSub - 1
	}
	a.buckets[oct*histSub+sub]++
}

// Count returns the number of values absorbed.
func (a *Accumulator) Count() int { return a.count }

// Mean returns the running-sum mean (0 for an empty accumulator).
func (a *Accumulator) Mean() float64 {
	if a.count == 0 {
		return 0
	}
	return a.sum / float64(a.count)
}

// quantileAt returns the approximate q-th quantile: it walks the histogram
// to the bucket containing the target rank and returns that bucket's
// geometric midpoint, clamped into [Min, Max].
func (a *Accumulator) quantileAt(q float64) float64 {
	if a.count == 0 {
		return 0
	}
	// Same rank convention as Summarize's interpolated quantile, rounded
	// to the containing observation.
	rank := int(q*float64(a.count-1)) + 1
	if rank < 1 {
		rank = 1
	}
	if rank > a.count {
		rank = a.count
	}
	seen := a.underflow
	if rank <= seen {
		return a.min
	}
	for i := range a.buckets {
		n := int(a.buckets[i])
		if n == 0 {
			continue
		}
		seen += n
		if seen >= rank {
			oct := i / histSub
			sub := i % histSub
			lo := math.Ldexp(1+float64(sub)/histSub, oct+histMinExp)
			hi := math.Ldexp(1+float64(sub+1)/histSub, oct+histMinExp)
			v := math.Sqrt(lo * hi)
			if v < a.min {
				v = a.min
			}
			if v > a.max {
				v = a.max
			}
			return v
		}
	}
	return a.max
}

// Summary renders the accumulated statistics. Count, Mean, Min, Max, and
// Stddev match the batch Summarize (up to float summation order); the
// quantiles are histogram approximations.
//
// Stddev is the POPULATION standard deviation (÷ n, √(M2/n)), matching
// the Summary contract in metrics.go: both the batch and streaming paths
// describe the complete set of simulated outcomes, so neither applies
// Bessel's correction. If one side ever switched to the sample form
// (÷ n−1) the batch-vs-streaming differential tests would diverge on
// every series with n > 1.
func (a *Accumulator) Summary() Summary {
	if a.count == 0 {
		return Summary{}
	}
	return Summary{
		Count:  a.count,
		Mean:   a.sum / float64(a.count),
		Min:    a.min,
		Max:    a.max,
		Median: a.quantileAt(0.5),
		P90:    a.quantileAt(0.9),
		P99:    a.quantileAt(0.99),
		Stddev: math.Sqrt(a.m2 / float64(a.count)),
	}
}

// Reset returns the accumulator to its empty state for reuse.
func (a *Accumulator) Reset() {
	*a = Accumulator{}
}
