package benchsuite

import (
	"math"
	"testing"
)

func closeTo(t *testing.T, name string, got, want, eps float64) {
	t.Helper()
	if math.Abs(got-want) > eps {
		t.Fatalf("%s = %g, want %g (±%g)", name, got, want, eps)
	}
}

// Known-value check of the whole stats pipeline on a hand-computable
// sample set.
func TestComputeKnownValues(t *testing.T) {
	// Deliberately unsorted; Compute must not mutate it.
	in := []float64{5, 1, 3, 2, 4}
	st := Compute(in)
	if in[0] != 5 {
		t.Fatal("Compute mutated its input")
	}
	if st.Runs != 5 {
		t.Fatalf("Runs = %d", st.Runs)
	}
	closeTo(t, "min", st.MinSeconds, 1, 1e-12)
	closeTo(t, "max", st.MaxSeconds, 5, 1e-12)
	closeTo(t, "mean", st.Mean, 3, 1e-12)
	closeTo(t, "p50", st.P50Seconds, 3, 1e-12)
	// p95 of [1..5]: pos = 0.95*4 = 3.8 → 4 + 0.8*(5-4) = 4.8
	closeTo(t, "p95", st.P95Seconds, 4.8, 1e-12)
	closeTo(t, "p99", st.P99Seconds, 4.96, 1e-12)
	// Sample variance of 1..5 is 2.5 → stddev √2.5.
	closeTo(t, "stddev", st.Stddev, math.Sqrt(2.5), 1e-12)
	closeTo(t, "cv", st.CV, math.Sqrt(2.5)/3, 1e-12)
}

func TestComputeEdgeCases(t *testing.T) {
	if st := Compute(nil); st != (Stats{}) {
		t.Fatalf("empty input: %+v", st)
	}
	st := Compute([]float64{7})
	if st.Runs != 1 || st.MinSeconds != 7 || st.P99Seconds != 7 || st.Stddev != 0 || st.CV != 0 {
		t.Fatalf("single value: %+v", st)
	}
}
