package main

import (
	"math"
	"sort"
	"time"
)

// quantile is the exact order statistic of rank ceil(p*n) (nearest rank)
// over raw samples; sorted must be ascending. It never interpolates and
// never buckets.
// An empty sample reads 0, so a workload without writes reports 0 for the
// write percentiles.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), p)]
}

// rankOf is the zero-based index of the p-quantile among n samples.
func rankOf(n int, p float64) int {
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// beyond is the number of samples strictly above the p-quantile's rank.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankOf(n, p)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// windowedQuantile cuts the phase's read latencies, in schedule order,
// into as many equal windows of at least minSamples as fit (1 to
// maxWindows), and returns the median over the windows of each window's
// exact p-quantile, with the number of windows. A burst of host
// contention then moves the windows it covers, not the result.
func windowedQuantile(ph *phase, p float64, minSamples int) (float64, int) {
	var reads []float64
	for j := range ph.out {
		if o := &ph.out[j]; o.submitted && !o.write {
			reads = append(reads, ms(o.lat))
		}
	}
	k := min(max(1, len(reads)/minSamples), maxWindows)
	qs := make([]float64, k)
	for i := range qs {
		qs[i] = quantile(sortedCopy(reads[i*len(reads)/k:(i+1)*len(reads)/k]), p)
	}
	return median(qs), k
}

// p50Window and p99Window are the smallest windows: at least ten samples
// lie beyond a window's p99, and a hundred on each side of its median.
const (
	p50Window  = 200
	p99Window  = 1000
	maxWindows = 16
)
