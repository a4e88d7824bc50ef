package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of
// samples, which it sorts in place. The rank is ceil(q·n); the value is
// reported only when at least minTail samples lie beyond that rank, so
// a tail percentile never rests on fewer than minTail observations.
func percentile(samples []float64, q float64, minTail int) (float64, bool) {
	rank, ok := nearestRank(len(samples), q, minTail)
	if !ok {
		return 0, false
	}
	if !sort.Float64sAreSorted(samples) {
		sort.Float64s(samples)
	}
	return samples[rank-1], true
}

// nearestRank returns the 1-based rank of the q-quantile of n samples,
// and whether at least minTail samples lie beyond it.
func nearestRank(n int, q float64, minTail int) (int, bool) {
	if n == 0 || q <= 0 || q > 1 {
		return 0, false
	}
	rank := max(int(math.Ceil(q*float64(n)-1e-9)), 1)
	return rank, n-rank >= minTail
}

// blockLen is the smallest number of samples whose p99 has minTail
// samples beyond it; 0 when minTail is 0.
func blockLen(minTail int) int {
	n := minTail
	for n > 0 {
		if _, ok := nearestRank(n, 0.99, minTail); ok {
			break
		}
		n++
	}
	return n
}

// blockP99 splits samples, in arrival order, into as many consecutive
// equal blocks as hold blockLen(minTail) samples each (one block when
// minTail is 0) and returns the median over the blocks of each block's
// p99. A stretch of interference from outside the process then moves
// only the blocks it covers, not the reported value. ok is false when
// the samples do not fill one block.
func blockP99(samples []float64, minTail int) (float64, bool) {
	k := 1
	if size := blockLen(minTail); size > 0 {
		k = len(samples) / size
	}
	if k == 0 || len(samples) == 0 {
		return 0, false
	}
	p99s := make([]float64, 0, k)
	for i := range k {
		block := append([]float64(nil), samples[i*len(samples)/k:(i+1)*len(samples)/k]...)
		v, ok := percentile(block, 0.99, minTail)
		if !ok {
			return 0, false
		}
		p99s = append(p99s, v)
	}
	return median(p99s), true
}

// keyedMedian returns the median over keys of per(samples) of each key;
// per may sort the samples in place. ok is false when there are no keys.
func keyedMedian(byKey map[string][]float64, per func([]float64) float64) (float64, bool) {
	vs := make([]float64, 0, len(byKey))
	for _, samples := range byKey {
		vs = append(vs, per(samples))
	}
	return percentile(vs, 0.5, 0)
}

// mean is the arithmetic mean of samples, 0 when there are none.
func mean(samples []float64) float64 {
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return ratio(sum, float64(len(samples)))
}

// median is the nearest-rank median with no tail requirement.
func median(samples []float64) float64 {
	v, _ := percentile(samples, 0.5, 0)
	return v
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
