package gen

import (
	"math"
	"math/rand"
	"testing"

	"gdeltmine/internal/gdelt"
)

func TestConfigValidate(t *testing.T) {
	if err := Small().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Small()
	bad.Sources = 5
	if bad.Validate() == nil {
		t.Fatal("too few sources should fail")
	}
	bad = Small()
	bad.End = bad.Start
	if bad.Validate() == nil {
		t.Fatal("empty span should fail")
	}
	bad = Small()
	bad.PopularityAlpha = 1.5
	if bad.Validate() == nil {
		t.Fatal("alpha <= 2 should fail")
	}
	bad = Small()
	bad.MediaGroupSize = 1
	if bad.Validate() == nil {
		t.Fatal("tiny media group should fail")
	}
	bad = Small()
	bad.IntervalsPerFile = 0
	if bad.Validate() == nil {
		t.Fatal("zero chunk size should fail")
	}
	bad = Small()
	bad.UntaggedFraction = 0.95
	if bad.Validate() == nil {
		t.Fatal("huge untagged fraction should fail")
	}
	bad = Small()
	bad.EventsPerDay = 0
	if bad.Validate() == nil {
		t.Fatal("zero rate should fail")
	}
}

func TestConfigCalendar(t *testing.T) {
	c := Small()
	// 18 Feb 2015 .. 31 Dec 2019.
	if got := c.Days(); got != 1778 {
		t.Fatalf("days %d want 1778", got)
	}
	if got := c.Quarters(); got != 20 {
		t.Fatalf("quarters %d want 20", got)
	}
}

func TestWorldDeterminism(t *testing.T) {
	a, err := NewWorld(Small())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWorld(Small())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Sources) != len(b.Sources) {
		t.Fatal("source counts differ")
	}
	for i := range a.Sources {
		if a.Sources[i] != b.Sources[i] {
			t.Fatalf("source %d differs: %+v vs %+v", i, a.Sources[i], b.Sources[i])
		}
	}
}

func TestWorldStructure(t *testing.T) {
	w, err := NewWorld(Small())
	if err != nil {
		t.Fatal(err)
	}
	cfg := w.Cfg
	if len(w.Sources) != cfg.Sources {
		t.Fatalf("sources %d", len(w.Sources))
	}
	// Media group: first MediaGroupSize sources, all UK, full activity.
	uk := int16(gdelt.CountryIndex("UK"))
	for i := 0; i < cfg.MediaGroupSize; i++ {
		s := w.Sources[i]
		if s.Group != 0 || s.Country != uk || s.StartQ != 0 || int(s.EndQ) != w.Quarters()-1 {
			t.Fatalf("group source %d malformed: %+v", i, s)
		}
	}
	if got := len(w.GroupMembers(0)); got != cfg.MediaGroupSize {
		t.Fatalf("group members %d", got)
	}
	// Every source has a resolvable TLD country and a positive weight.
	for i, s := range w.Sources {
		if s.Weight <= 0 {
			t.Fatalf("source %d weight %v", i, s.Weight)
		}
		ci := gdelt.CountryFromDomain(s.Name)
		if ci != int(s.Country) {
			t.Fatalf("source %d %q: TLD country %d != %d", i, s.Name, ci, s.Country)
		}
		if s.StartQ < 0 || s.EndQ >= int16(w.Quarters()) || s.StartQ > s.EndQ {
			t.Fatalf("source %d activity window [%d,%d]", i, s.StartQ, s.EndQ)
		}
	}
}

func TestWorldActiveFractionAboutOneThird(t *testing.T) {
	w, err := NewWorld(Standard())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for q := 0; q < w.Quarters(); q++ {
		sum += float64(w.ActiveSources(q))
	}
	frac := sum / float64(w.Quarters()*len(w.Sources))
	if frac < 0.22 || frac > 0.5 {
		t.Fatalf("mean active fraction %.3f not near 1/3", frac)
	}
}

func TestAliasTableDistribution(t *testing.T) {
	weights := []float64{1, 2, 0, 4}
	tbl := newAliasTable(weights)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 4)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[tbl.sample(rng)]++
	}
	if counts[2] != 0 {
		t.Fatalf("zero-weight index sampled %d times", counts[2])
	}
	for i, w := range weights {
		if w == 0 {
			continue
		}
		got := float64(counts[i]) / n
		want := w / 7
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("index %d freq %.4f want %.4f", i, got, want)
		}
	}
}

func TestAliasTableEdge(t *testing.T) {
	if newAliasTable(nil) != nil {
		t.Fatal("empty weights should give nil table")
	}
	if newAliasTable([]float64{0, 0}) != nil {
		t.Fatal("all-zero weights should give nil table")
	}
	tbl := newAliasTable([]float64{5})
	rng := rand.New(rand.NewSource(2))
	if tbl.sample(rng) != 0 {
		t.Fatal("single-element table must sample 0")
	}
}

func TestAliasTableNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newAliasTable([]float64{1, -1})
}

func TestPoissonMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, lambda := range []float64{0, 0.5, 4, 60} {
		var sum float64
		const n = 50000
		for i := 0; i < n; i++ {
			sum += float64(poisson(rng, lambda))
		}
		mean := sum / n
		if math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Fatalf("lambda %v: mean %v", lambda, mean)
		}
	}
}

func TestParetoIntBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100000; i++ {
		k := paretoInt(rng, 2.35, 100)
		if k < 1 || k > 100 {
			t.Fatalf("pareto sample %d out of [1,100]", k)
		}
	}
	if paretoInt(rng, 2.35, 1) != 1 {
		t.Fatal("max=1 should always return 1")
	}
}

func TestParetoIntMeanNearTheory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sum float64
	const n = 300000
	for i := 0; i < n; i++ {
		sum += float64(paretoInt(rng, 2.35, 1000000))
	}
	mean := sum / n
	// Continuous Pareto mean (alpha-1)/(alpha-2) = 3.857 minus the floor
	// bias of about 0.5.
	if mean < 2.7 || mean > 4.2 {
		t.Fatalf("pareto mean %v, want near 3.4 (the Table I weighted average)", mean)
	}
}

func TestLogHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 10000; i++ {
		x := logUniform(rng, 96, 672)
		if x < 96 || x > 672 {
			t.Fatalf("logUniform out of range: %v", x)
		}
		y := logNormalClamped(rng, math.Log(16), 1, 1, 96)
		if y < 1 || y > 96 {
			t.Fatalf("logNormalClamped out of range: %v", y)
		}
	}
	if got := logUniform(rng, 10, 10); got != 10 {
		t.Fatalf("degenerate logUniform %v", got)
	}
}

func TestSubSeedStability(t *testing.T) {
	a := subSeed(42, 7)
	b := subSeed(42, 7)
	c := subSeed(42, 8)
	d := subSeed(43, 7)
	if a != b {
		t.Fatal("subSeed not deterministic")
	}
	if a == c || a == d {
		t.Fatal("subSeed streams collide")
	}
}
