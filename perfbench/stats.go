package main

import (
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram over nanoseconds. Values below
// subBuckets are exact; above, each power of two is split into
// subBuckets equal buckets, so a reported quantile is within
// 1/subBuckets (0.8%) of the true sample value. A run records millions
// of operations per class, which a sorted sample slice could not hold.
type hist struct {
	counts []uint64
	n      uint64
	sum    uint64
}

const (
	subBits    = 7
	subBuckets = 1 << subBits
	maxExp     = 40 // 2^47 ns, about 39 hours: larger values clamp
	histSize   = (maxExp + 1) * subBuckets
)

func newHist() *hist { return &hist{counts: make([]uint64, histSize)} }

func bucketOf(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1
	if e >= maxExp {
		return histSize - 1
	}
	return (e+1)*subBuckets + int(v>>uint(e)) - subBuckets
}

// bucketLow is the smallest value that lands in bucket i.
func bucketLow(i int) uint64 {
	if i < subBuckets {
		return uint64(i)
	}
	e := i/subBuckets - 1
	return uint64(i%subBuckets+subBuckets) << uint(e)
}

func (h *hist) add(v uint64) {
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the nearest-rank q-quantile: the lower bound of the
// bucket holding the ceil(q*n)-th smallest sample. Zero when empty.
func (h *hist) quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	rank := rankOf(q, h.n)
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketLow(i)
		}
	}
	return bucketLow(histSize - 1)
}

// rankOf is the 1-based nearest rank of quantile q among n samples.
func rankOf(q float64, n uint64) uint64 {
	r := uint64(q*float64(n) + 0.999999999)
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median returns the middle of xs (mean of the middle two when even);
// xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
