package stats

import (
	"errors"
	"math"
)

// PowerLawFit is the result of fitting counts ~ C * x^(-Alpha).
type PowerLawFit struct {
	// Alpha is the power-law exponent (positive for a decaying law).
	Alpha float64
	// C is the fitted log-log intercept, i.e. counts ≈ exp(C) * x^(-Alpha).
	C float64
	// R2 is the coefficient of determination of the log-log regression.
	R2 float64
	// N is the number of (x, count) points used.
	N int
}

// FitPowerLaw fits a discrete power law to a size distribution given as
// counts[x] = number of observations with value x (index 0 unused or zero).
// Points with zero counts are skipped; fitting happens in log-log space by
// least squares, which is how the "frequency of highly reported news follows
// a power law" claim around Figure 2 is checked. xmin restricts the fit to
// values >= xmin, which excludes the non-power-law head.
func FitPowerLaw(counts []int64, xmin int) (PowerLawFit, error) {
	if xmin < 1 {
		xmin = 1
	}
	var xs, ys []float64
	for x := xmin; x < len(counts); x++ {
		if counts[x] > 0 {
			xs = append(xs, math.Log(float64(x)))
			ys = append(ys, math.Log(float64(counts[x])))
		}
	}
	if len(xs) < 3 {
		return PowerLawFit{}, errors.New("stats: too few points for a power-law fit")
	}
	slope, intercept, r2 := linearRegression(xs, ys)
	return PowerLawFit{Alpha: -slope, C: intercept, R2: r2, N: len(xs)}, nil
}

// linearRegression returns the least-squares slope, intercept and R² of
// y = slope*x + intercept.
func linearRegression(xs, ys []float64) (slope, intercept, r2 float64) {
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, my, 0
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		return slope, intercept, 1
	}
	r2 = (sxy * sxy) / (sxx * syy)
	return slope, intercept, r2
}
