// Package stats implements the statistical machinery of the paper:
// resampling (permutation) tests for the mean-greater and variance-greater
// insight types (Table 1, §5.1.1), shared permutations across measures,
// Benjamini–Hochberg FDR correction, and the Welch t-test used by the user
// study analysis (§6.5). Everything is deterministic given a seed.
package stats

import "math"

// Mean returns the arithmetic mean of x, or NaN for empty input.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Sum returns the sum of x.
func Sum(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

// Variance returns the unbiased sample variance of x (denominator n−1), or
// NaN when len(x) < 2.
func Variance(x []float64) float64 {
	n := len(x)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(x)
	ss := 0.0
	for _, v := range x {
		d := v - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// PopVariance returns the population variance of x (denominator n), or NaN
// for empty input. The permutation test statistic |σ²X − σ²Y| of Table 1
// uses this form so that single-element sides still yield a number.
func PopVariance(x []float64) float64 {
	n := len(x)
	if n == 0 {
		return math.NaN()
	}
	m := Mean(x)
	ss := 0.0
	for _, v := range x {
		d := v - m
		ss += d * d
	}
	return ss / float64(n)
}

// StdDev returns the sample standard deviation of x.
func StdDev(x []float64) float64 { return math.Sqrt(Variance(x)) }

// Median returns the median of x (the mean of the two middle values for
// even lengths), or NaN for empty input. x is not modified.
func Median(x []float64) float64 {
	return medianInPlace(append([]float64(nil), x...))
}

// medianInPlace is Median of buf, which it reorders.
func medianInPlace(buf []float64) float64 {
	n := len(buf)
	if n == 0 {
		return math.NaN()
	}
	lo := quickselect(buf, (n-1)/2)
	if n%2 == 1 {
		return lo
	}
	hi := quickselect(buf, n/2)
	return (lo + hi) / 2
}

// quickselect returns the k-th smallest element (0-based), partially
// reordering buf in place. Hoare partitioning with median-of-three pivots:
// expected O(n).
func quickselect(buf []float64, k int) float64 {
	lo, hi := 0, len(buf)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		// Median-of-three pivot to dodge sorted-input quadratics.
		if buf[mid] < buf[lo] {
			buf[mid], buf[lo] = buf[lo], buf[mid]
		}
		if buf[hi] < buf[lo] {
			buf[hi], buf[lo] = buf[lo], buf[hi]
		}
		if buf[hi] < buf[mid] {
			buf[hi], buf[mid] = buf[mid], buf[hi]
		}
		pivot := buf[mid]
		i, j := lo, hi
		for i <= j {
			for buf[i] < pivot {
				i++
			}
			for buf[j] > pivot {
				j--
			}
			if i <= j {
				buf[i], buf[j] = buf[j], buf[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return buf[k]
		}
	}
	return buf[lo]
}
