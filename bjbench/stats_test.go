package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		v    float64
		want bool
	}{
		{19, 0, 0, false},
		{20, 0.5, 10, true},
		{99, 0.5, 50, true},
		{100, 0.9, 90, true},
		{999, 0.9, 900, true},
		{1000, 0.99, 990, true},
		{9999, 0.99, 9900, true},
		{10000, 0.999, 9990, true},
	}
	for _, c := range cases {
		p, v, ok := tailPercentile(seq(c.n))
		if ok != c.want || p != c.p || v != c.v {
			t.Errorf("n=%d: got p=%g v=%g ok=%v, want p=%g v=%g ok=%v", c.n, p, v, ok, c.p, c.v, c.want)
		}
		if ok {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < tailBeyond {
				t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond, 100*p)
			}
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %g, want 3", got)
	}
	if got := percentile(xs, 0.9); got != 5 {
		t.Errorf("p90 = %g, want 5", got)
	}
	if got := percentile(xs, 0.2); got != 1 {
		t.Errorf("p20 = %g, want 1", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 || mean(nil) != 0 {
		t.Error("empty input must give 0")
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}
