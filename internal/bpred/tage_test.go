package bpred

import (
	"math/rand"
	"testing"
)

// train runs a branch stream and returns the misprediction rate.
func train(t *TAGE, stream func(i int) (pc uint32, taken bool), n int) float64 {
	start := t.Stats()
	for i := 0; i < n; i++ {
		pc, taken := stream(i)
		t.Update(pc, taken)
	}
	end := t.Stats()
	return float64(end.Mispredicts-start.Mispredicts) / float64(end.Lookups-start.Lookups)
}

func TestAlwaysTakenLearned(t *testing.T) {
	p := NewTAGE()
	rate := train(p, func(i int) (uint32, bool) { return 0x40, true }, 10000)
	if rate > 0.01 {
		t.Errorf("always-taken mispredict rate = %.3f, want < 0.01", rate)
	}
}

func TestAlternatingPatternLearned(t *testing.T) {
	p := NewTAGE()
	// Warm up, then measure: TAGE must capture a T/NT alternation through
	// its history-indexed banks (bimodal alone cannot).
	train(p, func(i int) (uint32, bool) { return 0x80, i%2 == 0 }, 5000)
	rate := train(p, func(i int) (uint32, bool) { return 0x80, i%2 == 0 }, 5000)
	if rate > 0.05 {
		t.Errorf("alternating-pattern mispredict rate = %.3f, want < 0.05", rate)
	}
}

func TestLongPeriodicPatternLearned(t *testing.T) {
	p := NewTAGE()
	pattern := []bool{true, true, false, true, false, false, true, false}
	stream := func(i int) (uint32, bool) { return 0x100, pattern[i%len(pattern)] }
	train(p, stream, 20000)
	rate := train(p, stream, 10000)
	if rate > 0.05 {
		t.Errorf("period-8 pattern mispredict rate = %.3f, want < 0.05", rate)
	}
}

func TestCorrelatedBranches(t *testing.T) {
	p := NewTAGE()
	// Branch B's outcome equals branch A's previous outcome.
	rng := rand.New(rand.NewSource(5))
	last := false
	stream := func(i int) (uint32, bool) {
		if i%2 == 0 {
			last = rng.Intn(2) == 0
			return 0x200, last
		}
		return 0x204, last
	}
	train(p, stream, 40000)
	// Measure only branch B.
	var lookups, miss int
	for i := 0; i < 20000; i++ {
		pc, taken := stream(i)
		pred := p.Update(pc, taken)
		if pc == 0x204 {
			lookups++
			if pred != taken {
				miss++
			}
		}
	}
	rate := float64(miss) / float64(lookups)
	if rate > 0.10 {
		t.Errorf("correlated-branch mispredict rate = %.3f, want < 0.10", rate)
	}
}

func TestRandomBranchesNearHalf(t *testing.T) {
	p := NewTAGE()
	rng := rand.New(rand.NewSource(17))
	rate := train(p, func(i int) (uint32, bool) {
		return uint32(0x300 + 4*(i%16)), rng.Intn(2) == 0
	}, 50000)
	if rate < 0.35 || rate > 0.65 {
		t.Errorf("random-branch mispredict rate = %.3f, want ~0.5", rate)
	}
}

func TestManyBranchSitesBiased(t *testing.T) {
	p := NewTAGE()
	// 256 branch sites, each strongly biased: rate should end well below
	// the bias noise floor.
	rng := rand.New(rand.NewSource(23))
	bias := make([]bool, 256)
	for i := range bias {
		bias[i] = rng.Intn(2) == 0
	}
	stream := func(i int) (uint32, bool) {
		s := i % 256
		taken := bias[s]
		if rng.Intn(100) < 2 { // 2% noise
			taken = !taken
		}
		return uint32(0x1000 + 4*s), taken
	}
	train(p, stream, 100000)
	rate := train(p, stream, 50000)
	if rate > 0.08 {
		t.Errorf("biased-sites mispredict rate = %.3f, want < 0.08", rate)
	}
}

func TestStatsAccumulate(t *testing.T) {
	p := NewTAGE()
	for i := 0; i < 100; i++ {
		p.Update(0x10, true)
	}
	s := p.Stats()
	if s.Lookups != 100 {
		t.Errorf("Lookups = %d, want 100", s.Lookups)
	}
	if s.Rate() < 0 || s.Rate() > 1 {
		t.Errorf("Rate = %v out of range", s.Rate())
	}
	var zero Stats
	if zero.Rate() != 0 {
		t.Error("zero stats Rate != 0")
	}
}

func BenchmarkTAGEUpdate(b *testing.B) {
	p := NewTAGE()
	rng := rand.New(rand.NewSource(1))
	pcs := make([]uint32, 1024)
	outs := make([]bool, 1024)
	for i := range pcs {
		pcs[i] = uint32(rng.Intn(4096)) * 4
		outs[i] = rng.Intn(3) > 0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Update(pcs[i%1024], outs[i%1024])
	}
}
