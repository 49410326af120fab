package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// TestQuantileMatchesSortedReference compares the histogram's quantiles
// with the nearest-rank quantile of the sorted samples: the histogram
// returns the lower bound of the reference's bucket, so it may read low
// by less than 1/subBuckets of the value and never high.
func TestQuantileMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	dists := map[string]func() uint64{
		"small":       func() uint64 { return rng.Uint64N(100) },
		"uniform":     func() uint64 { return 1000 + rng.Uint64N(1_000_000) },
		"exponential": func() uint64 { return uint64(rng.ExpFloat64() * 20_000) },
		"bimodal": func() uint64 {
			if rng.IntN(2) == 0 {
				return 2000 + rng.Uint64N(500)
			}
			return 50_000 + rng.Uint64N(50_000)
		},
	}
	for name, draw := range dists {
		for _, n := range []int{1, 2, 37, 1000, 100_000} {
			h := newHist()
			xs := make([]uint64, n)
			for i := range xs {
				xs[i] = draw()
				h.add(xs[i])
			}
			sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
			for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 0.999, 1} {
				want := xs[rankOf(q, uint64(n))-1]
				got := h.quantile(q)
				if got > want || float64(want-got) > float64(want)/subBuckets {
					t.Errorf("%s n=%d q=%v: histogram %d, sorted reference %d", name, n, q, got, want)
				}
			}
		}
	}
}

func TestBucketBounds(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1000, 1 << 20, 1<<40 + 12345} {
		b := bucketOf(v)
		if lo := bucketLow(b); lo > v || (b+1 < histSize && bucketLow(b+1) <= v) {
			t.Errorf("value %d in bucket %d [%d, %d)", v, b, lo, bucketLow(b+1))
		}
	}
	if q := newHist().quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile %d, want 0", q)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 values %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 values %v, want 2.5", m)
	}
	if m := median(nil); m != 0 || math.IsNaN(m) {
		t.Errorf("median of none %v, want 0", m)
	}
}
