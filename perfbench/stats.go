package main

import (
	"fmt"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie beyond it, so a tail figure is never
// one or two unlucky requests.
const minBeyond = 10

// percentile returns the pct-th percentile (0 < pct < 100) of samples by
// linear interpolation at rank pct/100·(n−1), the rank convention
// experiments.Stats and obs histograms use. It fails when fewer than
// minBeyond samples lie beyond the percentile, i.e. when
// n·(100−pct)/100 < minBeyond. The check is done in integers so that
// p90 of exactly 100 samples passes.
func percentile(samples []float64, pct int) (float64, error) {
	if pct <= 0 || pct >= 100 {
		return 0, fmt.Errorf("percentile %d out of (0,100)", pct)
	}
	n := len(samples)
	if n*(100-pct) < minBeyond*100 {
		need := (minBeyond*100 + 100 - pct - 1) / (100 - pct)
		return 0, fmt.Errorf("p%d needs at least %d samples for %d beyond it, have %d", pct, need, minBeyond, n)
	}
	return quantile(samples, float64(pct)/100), nil
}

// quantile interpolates the q-quantile of samples (no sample-count rule;
// callers that report a tail use percentile).
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := q * float64(len(s)-1)
	lo := int(rank)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is quantile(samples, 0.5): used for small fixed-size sets such as
// the repeated set-ups, where the percentile rule does not apply.
func median(samples []float64) float64 { return quantile(samples, 0.5) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeOp runs op n times and returns the median wall time of one call;
// the per-layer micro-measurements use it on the workload's own inputs.
func timeOp(n int, op func() error) (time.Duration, error) {
	d := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := op(); err != nil {
			return 0, err
		}
		d = append(d, float64(time.Since(start)))
	}
	return time.Duration(median(d)), nil
}
