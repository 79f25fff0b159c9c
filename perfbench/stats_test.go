package main

import "testing"

// TestTenBeyondRule pins the rule that a percentile is reported only with
// at least ten samples above it: p90 needs 100 samples, p50 needs 20.
func TestTenBeyondRule(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want int
	}{
		{99, 90, 9}, {100, 90, 10}, {101, 90, 10}, {110, 90, 11},
		{19, 50, 9}, {20, 50, 10},
	}
	for _, c := range cases {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	if beyond(99, 90) >= minBeyond || beyond(100, 90) < minBeyond {
		t.Error("p90 threshold is not 100 samples")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted input
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 = %v, want 90", got)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestQuartilesMatchPython checks against values printed by
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{5, 1, 9, 2, 7, 3, 8, 4, 6, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
