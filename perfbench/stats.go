package main

import (
	"math"
	"math/rand"
	"sort"
)

// Percentile is one reported order statistic of a sample set: the
// percentile actually used, its value, and how many samples it rests
// on.
type Percentile struct {
	P       float64 // percentile, 0..100
	Value   float64
	Samples int // size of the sample set
	Beyond  int // samples strictly above the percentile's rank
}

// tailPercentiles are the candidates pickTail tries, highest first.
var tailPercentiles = []float64{99.9, 99.5, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// quantile returns the nearest-rank p-th percentile of sorted samples
// and the number of samples ranked above it.
func quantile(sorted []float64, p float64) (float64, int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// pickTail reports the highest candidate percentile, capped at maxP,
// that still has at least minBeyond samples beyond it.  With too few
// samples for any candidate it falls back to the median, so a caller
// can always print something and the Beyond field says how little it
// rests on.
func pickTail(samples []float64, maxP float64) Percentile {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	for _, p := range tailPercentiles {
		if p > maxP {
			continue
		}
		v, beyond := quantile(sorted, p)
		if beyond >= minBeyond {
			return Percentile{P: p, Value: v, Samples: len(sorted), Beyond: beyond}
		}
	}
	v, beyond := quantile(sorted, 50)
	return Percentile{P: 50, Value: v, Samples: len(sorted), Beyond: beyond}
}

// median returns the median of samples (the mean of the middle pair
// for an even count), or 0 for none.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// zipfSampler draws ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s.  Unlike math/rand.Zipf it accepts any s >= 0, so the
// flat-popularity workload (s ≈ 0.5) uses the same generator as the
// skewed one.
type zipfSampler struct {
	cdf []float64
}

func newZipfSampler(n int, s float64) *zipfSampler {
	cdf := make([]float64, n)
	var total float64
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return &zipfSampler{cdf: cdf}
}

func (z *zipfSampler) draw(rng *rand.Rand) int {
	u := rng.Float64()
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// searchCapacity returns the largest n in lo, lo+step, …, hi for which
// ok(n) holds, assuming ok is monotone (true up to a knee, false
// after).  It probes by bisection over the grid, so it calls ok at
// most ceil(log2(grid points))+2 times, and it calls ok in an order
// that depends only on the answers, so a deterministic ok gives a
// deterministic search.  found is false when even lo fails; saturated
// is true when hi passes, meaning the knee lies beyond the range.
func searchCapacity(lo, hi, step int, ok func(n int) (bool, error)) (n int, probes int, found, saturated bool, err error) {
	if step < 1 || hi < lo {
		return 0, 0, false, false, nil
	}
	points := (hi-lo)/step + 1
	at := func(i int) int { return lo + i*step }
	probe := func(i int) (bool, error) {
		probes++
		return ok(at(i))
	}
	pass, err := probe(points - 1)
	if err != nil || pass {
		return at(points - 1), probes, pass, pass, err
	}
	if pass, err = probe(0); err != nil || !pass {
		return at(0), probes, false, false, err
	}
	good, bad := 0, points-1 // invariant: good passes, bad fails
	for bad-good > 1 {
		mid := (good + bad) / 2
		pass, err := probe(mid)
		if err != nil {
			return 0, probes, false, false, err
		}
		if pass {
			good = mid
		} else {
			bad = mid
		}
	}
	return at(good), probes, true, false, nil
}
