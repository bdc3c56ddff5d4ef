package security

import (
	"math"
	"testing"

	"aos/internal/instrument"
)

func TestMTEBypassProbability(t *testing.T) {
	// 4-bit tags, one value reserved for untagged memory: a random
	// far-away granule matches the pointer's tag 1 time in 15.
	if got := MTEBypassProbability(instrument.TagBits); math.Abs(got-1.0/15) > 1e-12 {
		t.Errorf("MTEBypassProbability(4) = %v, want 1/15", got)
	}
}

func TestBruteForceArithmetic(t *testing.T) {
	// §VII-E: "with a 16-bit PAC ... an attacker would require 45425
	// attempts to achieve a 50% likelihood".
	if got := AttemptsForConfidence(16, 0.5); got != 45425 {
		t.Errorf("AttemptsForConfidence(16, 0.5) = %d, want 45425", got)
	}
	if p := GuessProbability(16); p != 1.0/65536 {
		t.Errorf("GuessProbability = %v", p)
	}
	if p := CollisionProbability(16); p != 1.0/65536 {
		t.Errorf("CollisionProbability = %v", p)
	}
}

func TestExpectedRowOccupancy(t *testing.T) {
	// §VI assumption 2: typical live-chunk counts keep rows shallow. Even
	// omnetpp's ~2M live chunks average ~30 per row (within a few resizes'
	// capacity); hmmer's 1450 average 0.02.
	if got := ExpectedRowOccupancy(16, 1_993_737); math.Abs(got-30.4) > 0.1 {
		t.Errorf("omnetpp occupancy = %v", got)
	}
	if got := ExpectedRowOccupancy(16, 1450); got > 0.05 {
		t.Errorf("hmmer occupancy = %v", got)
	}
}
