package cpu

import (
	"fmt"
	"maps"
	"math/bits"

	"aos/internal/bpred"
	"aos/internal/cache"
	"aos/internal/mcu"
)

// span returns the ring slots of the reserved cycles [base, top) in cycle
// order: head up to where the window wraps, then tail.
func (s *portSched) span() (head, tail []uint8) {
	if s.top <= s.base {
		return nil, nil
	}
	i, n := s.base&s.mask, s.top-s.base
	if k := uint64(len(s.ring)) - i; n > k {
		return s.ring[i:], s.ring[:n-k]
	}
	return s.ring[i : i+n], nil
}

// save returns a copy of the scheduler for a checkpoint, sharing no
// storage with it. Its ring holds only the reserved span's counts in
// cycle order (nil when none is reserved): the rest of the window is zero.
func (s portSched) save() portSched {
	head, tail := s.span()
	s.ring = nil
	if len(head) > 0 {
		s.ring = append(append(make([]uint8, 0, len(head)+len(tail)), head...), tail...)
	}
	s.overflow = cloneOverflow(s.overflow)
	return s
}

// restore rewinds the scheduler to a saved one's reservations in its own
// ring, clearing its own reserved span first; its width and mask are
// construction-time and stay.
func (s *portSched) restore(st *portSched) {
	head, tail := s.span()
	clear(head)
	clear(tail)
	n := copy(s.ring[st.base&s.mask:], st.ring)
	copy(s.ring, st.ring[n:])
	s.base, s.top = st.base, st.top
	s.overflow = cloneOverflow(st.overflow)
}

// cloneOverflow copies a spill map. An empty one clones to nil, so the
// common case allocates nothing.
func cloneOverflow(m map[uint64]uint8) map[uint64]uint8 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[uint64]uint8, len(m))
	maps.Copy(out, m)
	return out
}

// refill copies src into own and returns own, so a restored core keeps its
// buffers instead of sharing the snapshot's.
func refill[T any](own, src []T) []T {
	copy(own, src)
	return own
}

// CoreState is a deep checkpoint of the timing model: the warmed memory
// system and predictor, every occupancy ring and clock, and the statistics
// counters. Runtime wiring — config, the wayScratch buffer, the observer,
// telemetry probes, and the consumption mode — is NOT captured; Restore
// keeps the target core's wiring. It holds only state a resumed run can
// observe: the bndstr drain entries still draining (coreState.bndstrDrain
// is nil) and each port's reservations (see portSched.save).
type CoreState struct {
	coreState
	drains []pacDrain
	hier   *cache.HierarchyState
	bp     *bpred.State
	bwb    *mcu.BWBState // nil when the BWB is disabled
}

// pacDrain is one live bndstrDrain entry: the drain cycle of pac's most
// recent bndstr.
type pacDrain struct {
	pac   uint16
	cycle uint64
}

// Snapshot deep-copies the core's simulated state (~0.5 MiB, dominated by
// the L2's 512 KiB of line words). The snapshot is immutable and reusable
// for any number of Restores.
//
// It first drops the drain entries no later instruction can observe, in
// the live core too, so the core it leaves and every core restored from
// the snapshot hold the same table. fetchCycle never decreases, every
// later instruction issues at or after fetchCycle+FrontendDepth, and the
// table is read only as drain > issue, so an entry at or below that floor
// acts exactly as 0 (never stored) does. Only the entries drainSet marks
// are visited.
func (c *Core) Snapshot() *CoreState {
	s := &CoreState{coreState: c.coreState, hier: c.hier.Snapshot(), bp: c.bp.Snapshot()}
	if c.bwb != nil {
		s.bwb = c.bwb.Snapshot()
	}
	s.robRing = append([]uint64(nil), c.robRing...)
	s.lqRing = append([]uint64(nil), c.lqRing...)
	s.sqRing = append([]uint64(nil), c.sqRing...)
	s.mcqRing = append([]uint64(nil), c.mcqRing...)
	s.dMSHR = append([]uint64(nil), c.dMSHR...)
	s.bMSHR = append([]uint64(nil), c.bMSHR...)
	s.bndstrDrain = nil
	floor := c.fetchCycle + uint64(c.cfg.FrontendDepth)
	for w, set := range c.drainSet[:] {
		for ; set != 0; set &= set - 1 {
			pac := w<<6 | bits.TrailingZeros64(set)
			if d := c.bndstrDrain[pac]; d > floor {
				s.drains = append(s.drains, pacDrain{uint16(pac), d})
			} else {
				c.bndstrDrain[pac] = 0
				c.drainSet[w] &^= set & -set
			}
		}
	}
	s.port, s.dPort = c.port.save(), c.dPort.save()
	return s
}

// Restore rewinds the core to a snapshot taken from an identically
// configured core, keeping the target's runtime wiring (config, observer,
// telemetry, mode). The snapshot's buffers are copied into the core's own,
// so Restore allocates nothing, and the snapshot stays valid for further
// Restores.
func (c *Core) Restore(s *CoreState) error {
	if (c.bwb != nil) != (s.bwb != nil) {
		return fmt.Errorf("cpu: restore mismatch: BWB presence differs")
	}
	if len(s.robRing) != len(c.robRing) || len(s.lqRing) != len(c.lqRing) ||
		len(s.sqRing) != len(c.sqRing) || len(s.mcqRing) != len(c.mcqRing) ||
		len(s.dMSHR) != len(c.dMSHR) || len(s.bMSHR) != len(c.bMSHR) {
		return fmt.Errorf("cpu: restore mismatch: queue geometry differs")
	}
	before, beforeCommit := c.stats(), c.lastCommit
	if err := c.hier.Restore(s.hier); err != nil {
		return fmt.Errorf("cpu: %w", err)
	}
	c.bp.Restore(s.bp)
	if c.bwb != nil {
		c.bwb.Restore(s.bwb)
	}
	own := c.coreState
	c.coreState = s.coreState
	c.robRing = refill(own.robRing, s.robRing)
	c.lqRing = refill(own.lqRing, s.lqRing)
	c.sqRing = refill(own.sqRing, s.sqRing)
	c.mcqRing = refill(own.mcqRing, s.mcqRing)
	c.dMSHR = refill(own.dMSHR, s.dMSHR)
	c.bMSHR = refill(own.bMSHR, s.bMSHR)
	// Zero only the entries the bitmap marks, then mark the checkpoint's.
	c.bndstrDrain = own.bndstrDrain
	for w, set := range c.drainSet[:] {
		for ; set != 0; set &= set - 1 {
			c.bndstrDrain[w<<6|bits.TrailingZeros64(set)] = 0
		}
	}
	clear(c.drainSet[:])
	for _, d := range s.drains {
		c.bndstrDrain[d.pac] = d.cycle
		c.drainSet[d.pac>>6] |= 1 << (d.pac & 63)
	}
	c.port, c.dPort = own.port, own.dPort
	c.port.restore(&s.port)
	c.dPort.restore(&s.dPort)
	if c.tel != nil {
		// A restore consumes no instructions and runs no cycles: keep its
		// jump in the statistics and in the commit clock (a window's
		// checkpoint lies past its detailed warm-up) out of telemetry
		// windows, as a fast-forward's is. The shift wraps consistently
		// when the restore moves the clock back.
		c.tel.skip(before, c.stats())
		c.tel.prevCycle += c.lastCommit - beforeCommit
	}
	return nil
}
