package stats

import (
	"math"
	"testing"
)

func TestFitPowerLawRecoversExponent(t *testing.T) {
	// Exact synthetic law: counts[x] = round(1e6 * x^-2.5).
	counts := make([]int64, 200)
	for x := 1; x < len(counts); x++ {
		counts[x] = int64(1e6 * math.Pow(float64(x), -2.5))
	}
	fit, err := FitPowerLaw(counts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-2.5) > 0.1 {
		t.Fatalf("alpha %v want ~2.5", fit.Alpha)
	}
	if fit.R2 < 0.99 {
		t.Fatalf("r2 %v", fit.R2)
	}
	if fit.N < 50 {
		t.Fatalf("too few points used: %d", fit.N)
	}
}

func TestFitPowerLawXminSkipsHead(t *testing.T) {
	counts := make([]int64, 100)
	// Flat head below 10, power law above.
	for x := 1; x < 10; x++ {
		counts[x] = 1000
	}
	for x := 10; x < len(counts); x++ {
		counts[x] = int64(1e7 * math.Pow(float64(x), -3))
	}
	whole, err := FitPowerLaw(counts, 1)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := FitPowerLaw(counts, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tail.R2 <= whole.R2 {
		t.Fatalf("tail fit should be better: tail R2=%v whole R2=%v", tail.R2, whole.R2)
	}
	if math.Abs(tail.Alpha-3) > 0.15 {
		t.Fatalf("tail alpha %v want ~3", tail.Alpha)
	}
}

func TestFitPowerLawTooFewPoints(t *testing.T) {
	if _, err := FitPowerLaw([]int64{0, 5, 3}, 1); err == nil {
		t.Fatal("expected error for too few points")
	}
}

func TestLinearRegressionExactLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7}
	slope, intercept, r2 := linearRegression(xs, ys)
	if math.Abs(slope-2) > 1e-12 || math.Abs(intercept-1) > 1e-12 || math.Abs(r2-1) > 1e-12 {
		t.Fatalf("slope=%v intercept=%v r2=%v", slope, intercept, r2)
	}
}

func TestLinearRegressionDegenerate(t *testing.T) {
	// Vertical data: sxx == 0.
	slope, intercept, r2 := linearRegression([]float64{2, 2, 2}, []float64{1, 2, 3})
	if slope != 0 || intercept != 2 || r2 != 0 {
		t.Fatalf("degenerate fit slope=%v intercept=%v r2=%v", slope, intercept, r2)
	}
	// Horizontal data: syy == 0 means perfect fit.
	if _, _, r2 := linearRegression([]float64{1, 2, 3}, []float64{5, 5, 5}); r2 != 1 {
		t.Fatalf("horizontal r2=%v", r2)
	}
}
