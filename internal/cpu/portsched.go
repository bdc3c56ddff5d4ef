package cpu

// portSched is the per-cycle start-slot reservation scheduler for an
// execution port (L1-B lookup port, L1-D read ports). It replaces the old
// map[uint64]int bookkeeping with a dense power-of-two ring of per-cycle
// counters covering the window [base, base+len(ring)) over the commit
// frontier, plus a spill map for the (in practice never exercised)
// far-future cycles beyond the window.
//
// The scheduler is an exact drop-in for the map scheme, not an
// approximation: counts are kept per absolute cycle, reservations below
// base are clamped up to base exactly as reserve() clamped to the prune
// floor, and advance() runs on the same cadence prunePorts ran, so every
// grant cycle — and therefore every experiment output — is bit-identical
// to the map implementation. What changes is the cost: a reservation is
// one array increment instead of a map probe, there is no per-prune sweep
// over live keys, and the steady state allocates nothing.
type portSched struct {
	// ring holds the reservation count for cycle c at ring[c&mask], valid
	// for c in [base, base+len(ring)). Slots outside that range are zero by
	// the advance() invariant.
	ring []uint8
	mask uint64
	// base is the window floor: the same value the old scheme kept in
	// portFloor/dPortFloor. Reservations below it are clamped up to it.
	base uint64
	// top is one past the highest cycle reserved in the ring: every slot
	// outside [base, top) is zero, so a checkpoint copies and a restore
	// clears only that span.
	top uint64
	// width is the port's start bandwidth (grants per cycle).
	width uint8
	// overflow counts reservations at cycles at or beyond base+len(ring).
	// The window is sized so this stays empty for every evaluated workload
	// (it would take a sustained CPI above window/pruneEvery to reach it),
	// but spilling keeps the scheduler exact rather than approximately
	// correct if an extreme configuration ever gets there.
	overflow map[uint64]uint8
}

// portWindow is the dense scheduler window in cycles. Reservations start
// no earlier than base (= commit frontier at the last prune minus
// pruneMargin) and reach at most a few dependence-chain latencies past the
// current commit frontier, which itself advances by at most
// pruneEvery*CPI cycles between floor updates. 1<<17 cycles covers a
// sustained CPI of ~16 with margin; beyond that the overflow map takes
// over, exactly.
const portWindow = 1 << 17

// pruneEvery and pruneMargin reproduce the old prunePorts cadence: every
// pruneEvery emitted instructions the floor advances to
// lastCommit-pruneMargin. The cadence is part of the observable model —
// the floor clamps reservation start cycles in deeply memory-bound phases
// — so it must not change with the data structure.
const (
	pruneEvery  = 8192
	pruneMargin = 4096
)

// newPortSched builds a scheduler for a port of the given start width.
func newPortSched(width int) portSched {
	if width <= 0 || width > 255 {
		panic("cpu: port width out of range")
	}
	return portSched{
		ring:  make([]uint8, portWindow),
		mask:  portWindow - 1,
		width: uint8(width),
	}
}

// reserve finds the first cycle >= at with a free start slot and reserves
// it, exactly as the old reserve() did against the per-cycle map.
func (s *portSched) reserve(at uint64) uint64 {
	if at < s.base {
		at = s.base
	}
	limit := s.base + uint64(len(s.ring))
	for at < limit {
		slot := &s.ring[at&s.mask]
		if *slot < s.width {
			*slot++
			if at >= s.top {
				s.top = at + 1
			}
			return at
		}
		at++
	}
	// Far-future spill: keep exact per-cycle counts in the overflow map.
	for {
		if s.overflow == nil {
			s.overflow = make(map[uint64]uint8) //aoslint:allow hotpathalloc — cold far-future spill, allocated at most once per scheduler
		}
		if s.overflow[at] < s.width {
			s.overflow[at]++
			return at
		}
		at++
	}
}

// advance raises the window floor to newBase (the old prunePorts), zeroing
// the vacated slots so the cycles that alias into them later start clean.
// Dead overflow entries are dropped and in-window ones migrated. No-op
// when newBase does not advance the floor, matching the old `below >
// floor` guard.
func (s *portSched) advance(newBase uint64) {
	if newBase <= s.base {
		return
	}
	if delta := newBase - s.base; delta >= uint64(len(s.ring)) {
		for i := range s.ring {
			s.ring[i] = 0
		}
	} else {
		for c := s.base; c < newBase; c++ {
			s.ring[c&s.mask] = 0
		}
	}
	s.base = newBase
	if len(s.overflow) != 0 {
		limit := s.base + uint64(len(s.ring))
		for cyc, n := range s.overflow { //aoslint:allow mapiter — order-free migration: each entry moves or dies independently
			if cyc < s.base {
				delete(s.overflow, cyc)
			} else if cyc < limit {
				s.ring[cyc&s.mask] = n
				delete(s.overflow, cyc)
				if cyc >= s.top {
					s.top = cyc + 1
				}
			}
		}
	}
}
