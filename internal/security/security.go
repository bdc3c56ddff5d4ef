// Package security holds the paper's security analysis (§VII) apart from
// the attacks themselves, which live in internal/attack: the detection
// model (Expected) that every heap attack is graded against, and the
// PAC-entropy arithmetic behind the §VII-E brute-force feasibility claim.
package security

import "math"

// --- §VII-E: PAC entropy and brute-force feasibility ---

// GuessProbability is the chance a single forged PAC guess is correct.
func GuessProbability(pacBits int) float64 {
	return 1 / float64(uint64(1)<<uint(pacBits))
}

// AttemptsForConfidence returns how many guesses an attacker needs for the
// given success probability. For 16-bit PACs and p = 0.5 this reproduces
// the paper's 45425-attempt figure (§VII-E).
func AttemptsForConfidence(pacBits int, p float64) int {
	q := 1 - GuessProbability(pacBits)
	return int(math.Log(1-p) / math.Log(q))
}

// CollisionProbability returns the probability that two specific live
// chunks share a PAC (the false-positive precondition of §VII-E).
func CollisionProbability(pacBits int) float64 { return GuessProbability(pacBits) }

// MTEBypassProbability is the chance a random far-away granule carries
// the same tag as the attacking pointer under memory tagging with
// tagBits of entropy, so a spatial or temporal violation lands
// undetected. One tag value is reserved for untagged/freed memory, so
// an allocation tag collides with 1 of 2^tagBits-1 live tags. For MTE's
// 4-bit tags this is 1/15 — the probabilistic gap the deterministic AOS
// PAC check does not share (§VIII related work).
func MTEBypassProbability(tagBits int) float64 {
	return 1 / float64(uint64(1)<<uint(tagBits)-1)
}

// ExpectedRowOccupancy returns the mean number of live chunks per HBT row
// for a process with n live allocations (the §VI argument that rows stay
// shallow).
func ExpectedRowOccupancy(pacBits int, liveChunks uint64) float64 {
	return float64(liveChunks) / float64(uint64(1)<<uint(pacBits))
}
