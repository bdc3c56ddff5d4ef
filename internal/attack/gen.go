package attack

import (
	"fmt"

	"aos/internal/security"
)

// Allocation sizes the generator draws from: the tcache range, multiples
// of 8 so accesses stay word-aligned, mixing size%16 == 0 (the allocation
// fills its last MTE granule) and size%16 == 8 (the granule has rounding
// padding an off-by-one can hide in).
var allocSizes = []uint64{16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120}

// largeSizes is the subset big enough for interior-free deltas.
var largeSizes = []uint64{48, 64, 80, 96, 112}

const attackPattern = 0x4141414141414141

// Generate draws one well-formed attack program of the class from the
// seed. The program is a pure function of (class, seed): same inputs,
// byte-identical steps, any process, any worker count.
func Generate(class security.Class, seed uint64) (*Program, error) {
	r := newRNG(seed)
	p := &Program{Class: class, Seed: seed}
	switch class {
	case security.LinearOverflow:
		genOverflow(p, r, false)
	case security.OffByOne:
		genOverflow(p, r, true)
	case security.UAFRead:
		genUAF(p, r, false)
	case security.UAFWrite:
		genUAF(p, r, true)
	case security.DoubleFree:
		genDoubleFree(p, r)
	case security.InvalidFree:
		genInvalidFree(p, r)
	case security.FakeFree:
		genFakeFree(p, r)
	case security.MetadataCorruption:
		genMetadata(p, r)
	default:
		return nil, fmt.Errorf("attack: cannot generate class %v", class)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("attack: generated invalid program: %w", err)
	}
	return p, nil
}

// MixSeed derives the per-program seed for the index-th program of a
// class under a harness seed — exported so every surface (CLI, matrix,
// fuzz corpus) addresses the same program set.
func MixSeed(seed uint64, class security.Class, index int) uint64 {
	return mixSeed(seed, int(class), index)
}

// Programs draws n programs of the class. Each index mixes its own
// sub-seed so the set is independent of generation order.
func Programs(class security.Class, seed uint64, n int) ([]*Program, error) {
	out := make([]*Program, 0, n)
	for i := 0; i < n; i++ {
		p, err := Generate(class, mixSeed(seed, int(class), i))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// alloc appends an allocation and returns its slot.
func alloc(p *Program, size uint64) int {
	slot := slotsBefore(p.Steps, len(p.Steps))
	p.Steps = append(p.Steps, Step{Kind: KAlloc, Slot: slot, Size: size})
	return slot
}

// warmup adds 0..2 live allocations so attack chunks do not always sit at
// the heap base (and, under MTE, so the tag cycle starts at varied points).
func warmup(p *Program, r *rng) {
	for i := r.intn(3); i > 0; i-- {
		alloc(p, r.pick(allocSizes))
	}
}

// benignStores adds 0..2 in-bounds stores to a live slot.
func benignStores(p *Program, r *rng, slot int, size uint64) {
	for i := r.intn(3); i > 0; i-- {
		off := uint64(8 * r.intn(int(size/8)))
		p.Steps = append(p.Steps, Step{Kind: KStore, Slot: slot, Off: off, Val: r.next()})
	}
}

// benignLoads adds 0..2 in-bounds loads (used where the payload must stay
// zero, e.g. so an interior free reads a deterministically-implausible
// fake size field).
func benignLoads(p *Program, r *rng, slot int, size uint64) {
	for i := r.intn(3); i > 0; i-- {
		off := uint64(8 * r.intn(int(size/8)))
		p.Steps = append(p.Steps, Step{Kind: KLoad, Slot: slot, Off: off})
	}
}

// genOverflow builds LinearOverflow (a >= 2-word contiguous walk past the
// end) or OffByOne (a single word at exactly the requested size). The
// victim neighbor B is allocated so the write lands on real foreign state,
// and is deliberately never freed: glibc's neighbor-header reads at free
// time must not hand Baseline an accidental detection. The optional
// checked free of A is the hardened allocator's only chance to validate
// the clobbered canary — present in half the programs, which is exactly
// the canary-miss window the model calls probabilistic.
func genOverflow(p *Program, r *rng, offByOne bool) {
	warmup(p, r)
	size := r.pick(allocSizes)
	a := alloc(p, size)
	alloc(p, r.pick(allocSizes)) // the neighbor B: stays live forever
	benignStores(p, r, a, size)
	if offByOne {
		p.Steps = append(p.Steps, Step{
			Kind: KStore, Slot: a, Off: size, Val: attackPattern, Attack: true,
		})
	} else {
		p.Steps = append(p.Steps, Step{
			Kind: KOverflow, Slot: a, Off: size, Count: 2 + r.intn(7),
			Val: attackPattern, Attack: true,
		})
	}
	if r.chance(1, 2) {
		p.Steps = append(p.Steps, Step{Kind: KFree, Slot: a, Check: true})
	}
}

// genUAF builds a use-after-free read or write: free the victim, allocate
// 0..16 live fillers of a different size (consuming MTE tags without
// touching the victim's tcache bin), optionally reuse the victim's chunk
// with a same-size allocation (the AOS PAC-aliasing precondition), then
// access through the stale pointer. The attack is the last step, so a
// stale store that scribbles tcache metadata can never corrupt a later
// allocation.
func genUAF(p *Program, r *rng, write bool) {
	warmup(p, r)
	size := r.pick(allocSizes)
	a := alloc(p, size)
	benignStores(p, r, a, size)
	p.Steps = append(p.Steps, Step{Kind: KFree, Slot: a})
	filler := r.pick(allocSizes)
	for filler == size {
		filler = r.pick(allocSizes)
	}
	for i := r.intn(17); i > 0; i-- {
		alloc(p, filler)
	}
	if r.chance(1, 2) {
		alloc(p, size) // reuse: tcache LIFO hands back the victim's chunk
	}
	kind := KLoad
	if write {
		kind = KStore
	}
	p.Steps = append(p.Steps, Step{
		Kind: kind, Slot: a, Off: uint64(8 * r.intn(2)), Val: attackPattern, Attack: true,
	})
}

// genDoubleFree builds the §VII-D tcache-bypass shape: free the victim,
// raw-scribble its tcache key (the primitive glibc's heuristic cannot
// survive), then free it again. A third of programs first run a free
// storm long enough to flush the hardened allocator's quarantine
// (depth 32), and half reuse the chunk — the combination that turns
// every probabilistic cell's documented bypass window into sampled
// reality: quarantine exhaustion + reuse (hardened), exact same-size
// reuse (AOS PAC aliasing), reuse + tag-cycle collision (MTE).
func genDoubleFree(p *Program, r *rng) {
	warmup(p, r)
	size := r.pick(allocSizes)
	a := alloc(p, size)
	benignStores(p, r, a, size)
	p.Steps = append(p.Steps, Step{Kind: KFree, Slot: a})
	storm := r.intn(9)
	if r.chance(1, 3) {
		storm = 32 + r.intn(13)
		if r.chance(1, 3) {
			// Pin the MTE tag-cycle boundary: 44 storm allocations plus the
			// reuse consume exactly three full 15-tag cycles, so the reused
			// chunk gets the stale pointer's tag back — the 1/15 temporal
			// collision, sampled deliberately instead of hoped for.
			storm = 44
		}
	}
	stormSize := r.pick(allocSizes)
	for stormSize == size {
		stormSize = r.pick(allocSizes)
	}
	for i := 0; i < storm; i++ {
		f := alloc(p, stormSize)
		p.Steps = append(p.Steps, Step{Kind: KFree, Slot: f})
	}
	if r.chance(1, 2) {
		alloc(p, size) // reuse the victim's chunk
	}
	p.Steps = append(p.Steps, Step{Kind: KScribble, Slot: a, Off: 8, Val: 0})
	p.Steps = append(p.Steps, Step{Kind: KFree, Slot: a, Attack: true})
}

// genInvalidFree frees a derived interior or misaligned pointer. Benign
// accesses are loads only: the payload stays zero, so an aligned interior
// free reads a zero "size field" and glibc's plausibility check rejects
// it deterministically under every scheme.
func genInvalidFree(p *Program, r *rng) {
	warmup(p, r)
	size := r.pick(largeSizes)
	a := alloc(p, size)
	benignLoads(p, r, a, size)
	delta := r.pick([]uint64{8, 24, 16, 32})
	p.Steps = append(p.Steps, Step{Kind: KFreeOff, Slot: a, Off: delta, Attack: true})
}

// genFakeFree is the House-of-Spirit shape from Fig 1: craft a fake
// chunk's size fields in global memory, free a pointer into it, then
// allocate a victim. The victim's size is chosen from a bin no fake
// chunk maps to, so the allocation itself never errors — the verdict
// rides entirely on the fake free.
func genFakeFree(p *Program, r *rng) {
	warmup(p, r)
	addr := uint64(0x1000_0000) + 0x1000*uint64(r.intn(8))
	csize := r.pick([]uint64{0x20, 0x40, 0x60})
	p.Steps = append(p.Steps, Step{Kind: KCraftFake, Addr: addr, Size: csize})
	p.Steps = append(p.Steps, Step{Kind: KFakeFree, Addr: addr, Attack: true})
	alloc(p, r.pick([]uint64{104, 120})) // victim: bins 0x70/0x80, never a fake's
}

// genMetadata overwrites the next chunk's inline size header through an
// out-of-bounds store at usable(A)+8 (the driver resolves the usable size
// against the live allocator — hardened canary slack moves it). B is
// never freed and nothing allocates afterwards, so no scheme gets an
// accidental allocator-side detection: only an access-time bounds, tag or
// watchdog check can catch it.
func genMetadata(p *Program, r *rng) {
	warmup(p, r)
	size := r.pick(allocSizes)
	a := alloc(p, size)
	alloc(p, r.pick(allocSizes)) // B: the owner of the clobbered header
	benignStores(p, r, a, size)
	p.Steps = append(p.Steps, Step{Kind: KHeaderStore, Slot: a, Val: attackPattern, Attack: true})
}
