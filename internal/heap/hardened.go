package heap

import "fmt"

// Hardening configures the software hardened-allocator mode backing the
// HardenedAlloc protection scheme: no hardware mechanism, only
// allocator-side state and extra (real, traced) memory work. Each feature
// is independently switchable so the differential tests and the overhead
// matrix can price them separately:
//
//   - QuarantineDepth > 0 parks freed chunks in a FIFO before the real
//     release, keeping their memory unavailable for reuse and turning
//     double frees of quarantined pointers into hard errors.
//   - Canary places an 8-byte secret after each payload and verifies it
//     at free time (linear-overflow detection, at free only).
//   - PoisonOnFree fills the freed payload with a poison pattern.
//   - ZeroOnFree zeroes the freed payload instead (takes precedence
//     over PoisonOnFree).
//
// Quarantine and canary modes also validate ownership: freeing a pointer
// the allocator never returned is rejected instead of entering a bin
// (what defeats House-of-Spirit-style crafted frees).
type Hardening struct {
	// QuarantineDepth is the number of freed chunks held back from
	// reuse; 0 disables the quarantine.
	QuarantineDepth int
	// Canary enables the after-payload canary word.
	Canary bool
	// PoisonOnFree fills freed payloads with poisonWord.
	PoisonOnFree bool
	// ZeroOnFree zeroes freed payloads (wins over PoisonOnFree).
	ZeroOnFree bool
}

// Enabled reports whether any hardening feature is active.
func (h Hardening) Enabled() bool {
	return h.QuarantineDepth > 0 || h.Canary || h.PoisonOnFree || h.ZeroOnFree
}

// DefaultHardening is the configuration the HardenedAlloc scheme runs
// with in the experiment matrices: a 32-deep quarantine, canaries and
// poison-on-free (the typical hardened-allocator production shape).
func DefaultHardening() Hardening {
	return Hardening{QuarantineDepth: 32, Canary: true, PoisonOnFree: true}
}

// CanaryBytes is the per-allocation canary footprint.
const CanaryBytes = 8

const (
	// canarySecret seeds the per-pointer canary value; the mix keeps
	// adjacent allocations' canaries distinct so a spray that happens to
	// replicate one canary does not validate at another address.
	canarySecret = 0x5EC2E7C4A9A2B0D1
	canaryMix    = 0x9E3779B97F4A7C15
	// poisonWord is the fill pattern for PoisonOnFree.
	poisonWord = 0xDEDEDEDEDEDEDEDE
)

// ErrCanaryClobbered reports a free whose after-payload canary was
// overwritten (a linear overflow happened while the chunk was live).
var ErrCanaryClobbered = fmt.Errorf("heap: canary clobbered (buffer overflow detected at free)")

func canaryWord(ptr uint64) uint64 { return canarySecret ^ (ptr * canaryMix) }

// SetHardening installs a hardening configuration. Call it before the
// first allocation; switching features mid-stream would orphan canaries
// and quarantined chunks.
func (a *Allocator) SetHardening(h Hardening) { a.hard = h }

// canarySlack is the extra payload reserved for the canary word.
func (a *Allocator) canarySlack() uint64 {
	if a.hard.Canary {
		return CanaryBytes
	}
	return 0
}

// writeCanary installs the canary after a live payload (counts as one
// recorded store: the canary write is real allocator work in the trace).
func (a *Allocator) writeCanary(ptr, size uint64) {
	a.record(ptr+size, true)
	a.mem.WriteU64(ptr+size, canaryWord(ptr))
}

// fillOnFree overwrites the freed payload with zero or poison. Whole
// words only — the 0..7 tail bytes stay, so the canary (at ptr+size) is
// never clobbered by the fill itself. One access is recorded per cache
// line, modeling a write-combined fill loop.
func (a *Allocator) fillOnFree(ptr, size uint64) {
	var word uint64
	switch {
	case a.hard.ZeroOnFree:
		word = 0
	case a.hard.PoisonOnFree:
		word = poisonWord
	default:
		return
	}
	for p := ptr; p+8 <= ptr+size; p += 8 {
		if (p-ptr)%64 == 0 {
			a.record(p, true)
		}
		a.mem.WriteU64(p, word)
	}
}

// hardenedFree is Free under an active Hardening config: validate, check
// the canary, poison/zero, then either quarantine the chunk (deferring
// the real release until the FIFO overflows) or release it immediately.
func (a *Allocator) hardenedFree(ptr uint64) error {
	if ptr%Align != 0 || ptr < HeaderSize {
		return ErrInvalidFree
	}
	for _, q := range a.quarantine {
		if q == ptr {
			return fmt.Errorf("%w (quarantine)", ErrDoubleFree)
		}
	}
	reqSize, wasLive := a.sizes.Get(ptr)
	// Ownership validation: with a quarantine or canaries, a pointer the
	// allocator never handed out is rejected outright — the crafted-free
	// hole glibc leaves open (House of Spirit) is closed, and so is a
	// double free that already cleared the quarantine.
	if !wasLive && (a.hard.Canary || a.hard.QuarantineDepth > 0) {
		return ErrInvalidFree
	}
	if wasLive && a.hard.Canary {
		a.record(ptr+reqSize, false)
		if a.mem.ReadU64(ptr+reqSize) != canaryWord(ptr) {
			return ErrCanaryClobbered
		}
	}
	if wasLive {
		a.fillOnFree(ptr, reqSize)
	}
	if a.hard.QuarantineDepth > 0 {
		a.noteFreed(ptr, wasLive, reqSize)
		a.quarantine = append(a.quarantine, ptr)
		if len(a.quarantine) > a.hard.QuarantineDepth {
			old := a.quarantine[0]
			a.quarantine = a.quarantine[1:]
			return a.freeChunk(old, true)
		}
		return nil
	}
	return a.freeChunk(ptr, false)
}
