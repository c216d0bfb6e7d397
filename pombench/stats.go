package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count). xs is not modified. NaN for no samples.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. NaN for no samples. Failed
// operations enter latency samples as +Inf, so they count as missing any
// limit.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if s[lo] == s[hi] {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// quantileDone returns the q-quantile of the samples that are finite:
// the latencies of the operations that succeeded, 0 when none did. A
// reported metric must be finite, so a run with failed operations still
// prints its result and reports them in failed; the printed tail keeps
// them as +Inf.
func quantileDone(xs []float64, q float64) float64 {
	done := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsInf(x, 0) && !math.IsNaN(x) {
			done = append(done, x)
		}
	}
	if len(done) == 0 {
		return 0
	}
	return quantile(done, q)
}

// tailLadder is the set of percentiles a tail latency may be reported
// at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of tailLadder that has
// at least minBeyond samples above it among n samples — the rule that
// keeps a reported tail from resting on a handful of outliers. ok is
// false when even the median has fewer than minBeyond samples beyond it.
func tailPercentile(n, minBeyond int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= float64(minBeyond)-1e-9 {
			return p, true
		}
	}
	return 50, false
}

// failShare returns failed/attempted, with 0 attempts reading as a total
// failure: a run that attempted nothing has not shown anything works.
func failShare(failed, attempted int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s is a legal metric or workload name: it
// starts with a letter or digit and has at most 64 characters drawn from
// letters, digits, '_', '.' and '-'.
func validName(s string) error {
	if !metricNameRE.MatchString(s) {
		return fmt.Errorf("invalid name %q: want [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", s)
	}
	return nil
}

var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// validUnit reports whether s is a legal unit string.
func validUnit(s string) error {
	if !unitRE.MatchString(s) {
		return fmt.Errorf("invalid unit %q: want [A-Za-z0-9_/%%.-]{1,16}", s)
	}
	return nil
}
