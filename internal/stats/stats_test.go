package stats

import (
	"math"
	"math/rand"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Fatal("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean of empty should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if minimum(xs) != -1 || Max(xs) != 7 {
		t.Fatal("Min/Max wrong")
	}
	if !math.IsInf(minimum(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty Min/Max sentinel wrong")
	}
}

func TestStdDev(t *testing.T) {
	if !almost(stdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}), 2) {
		t.Fatalf("StdDev = %v, want 2", stdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}))
	}
	if stdDev([]float64{5}) != 0 {
		t.Fatal("StdDev of singleton should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if !almost(Percentile(xs, 0), 1) || !almost(Percentile(xs, 100), 5) {
		t.Fatal("extremes wrong")
	}
	if !almost(Percentile(xs, 50), 3) {
		t.Fatal("median wrong")
	}
	if !almost(Percentile(xs, 25), 2) {
		t.Fatal("q1 wrong")
	}
	// Interpolation between ranks.
	if !almost(Percentile([]float64{1, 2}, 50), 1.5) {
		t.Fatal("interpolation wrong")
	}
	if !almost(Percentile([]float64{9}, 75), 9) {
		t.Fatal("singleton wrong")
	}
	// Equal closest ranks return the value itself: at rank 0.3 between
	// two 0.1s, 0.1*0.7 + 0.1*0.3 would read 0.09999999999999999.
	if got := Percentile([]float64{0.1, 0.1}, 30); got != 0.1 {
		t.Fatalf("tie: Percentile = %v, want exactly 0.1", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Percentile(nil, 50) },
		func() { Percentile([]float64{1}, -1) },
		func() { Percentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestMedian(t *testing.T) {
	if !almost(Median([]float64{5, 1, 3}), 3) {
		t.Fatal("Median wrong")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.n != 5 || !almost(s.Mean, 3) || !almost(s.P50, 3) || s.min != 1 || s.Max != 5 {
		t.Fatalf("Summary = %+v", s)
	}
	if (Summarize(nil) != Summary{}) {
		t.Fatal("empty Summarize should be zero")
	}
	if Summarize([]float64{1}).String() == "" {
		t.Fatal("String empty")
	}
}

func TestLinearFit(t *testing.T) {
	// y = 3x + 1 exactly.
	xs := []float64{1, 2, 3, 4}
	ys := []float64{4, 7, 10, 13}
	slope, intercept := linearFit(xs, ys)
	if !almost(slope, 3) || !almost(intercept, 1) {
		t.Fatalf("fit = (%v, %v)", slope, intercept)
	}
}

func TestLinearFitNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 2*xs[i] + 5 + rng.NormFloat64()*0.01
	}
	slope, intercept := linearFit(xs, ys)
	if math.Abs(slope-2) > 0.01 || math.Abs(intercept-5) > 0.1 {
		t.Fatalf("noisy fit = (%v, %v)", slope, intercept)
	}
}

func TestLinearFitPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { linearFit([]float64{1}, []float64{1}) },
		func() { linearFit([]float64{1, 2}, []float64{1}) },
		func() { linearFit([]float64{2, 2}, []float64{1, 5}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestPowerLawExponent(t *testing.T) {
	// y = 7 x^2.5
	xs := []float64{2, 4, 8, 16, 32}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 7 * math.Pow(x, 2.5)
	}
	if e := PowerLawExponent(xs, ys); math.Abs(e-2.5) > 1e-9 {
		t.Fatalf("exponent = %v, want 2.5", e)
	}
}

func TestPowerLawExponentPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PowerLawExponent([]float64{0, 1}, []float64{1, 2})
}
