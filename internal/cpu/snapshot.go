package cpu

import (
	"encoding/binary"
	"fmt"
	"maps"

	"aos/internal/bpred"
	"aos/internal/cache"
	"aos/internal/mcu"
)

// save returns a copy of the scheduler for a checkpoint, sharing no
// storage with it. Its ring holds only the window's counts in cycle order,
// from base through the last reserved cycle (nil when none is reserved):
// every reservation lies in [base, base+len(ring)) by advance()'s
// invariant, so the rest of the window is zero.
func (s portSched) save() portSched {
	i := s.base & s.mask
	head := s.ring[i:] // cycles from base to where the window wraps
	tail := trimZeros(s.ring[:i])
	if len(tail) == 0 {
		head = trimZeros(head)
	}
	s.ring = nil
	if len(head)+len(tail) > 0 {
		s.ring = append(append(make([]uint8, 0, len(head)+len(tail)), head...), tail...)
	}
	s.overflow = cloneOverflow(s.overflow)
	return s
}

// trimZeros returns b without its trailing zeros, testing eight at a time:
// a port's window is 128 KiB, and its reservations span a few KiB.
func trimZeros(b []uint8) []uint8 {
	n := len(b)
	for n >= 8 && binary.LittleEndian.Uint64(b[n-8:n]) == 0 {
		n -= 8
	}
	for n > 0 && b[n-1] == 0 {
		n--
	}
	return b[:n]
}

// restore rewinds the scheduler to a saved one's reservations in its own
// ring, clearing the rest; its width and mask are construction-time and
// stay.
func (s *portSched) restore(st *portSched) {
	clear(s.ring)
	n := copy(s.ring[st.base&s.mask:], st.ring)
	copy(s.ring, st.ring[n:])
	s.base = st.base
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

// Snapshot deep-copies the core's simulated state (~1.1 MiB, dominated by
// the L2's 1 MiB of lines). The snapshot is immutable and reusable for any
// number of Restores.
//
// It first drops the drain entries no later instruction can observe, in
// the live core too, so the core it leaves and every core restored from
// the snapshot hold the same table. fetchCycle never decreases, every
// later instruction issues at or after fetchCycle+FrontendDepth, and the
// table is read only as drain > issue, so an entry at or below that floor
// acts exactly as 0 (never stored) does.
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
	for pac, d := range c.bndstrDrain {
		if d > floor {
			s.drains = append(s.drains, pacDrain{uint16(pac), d})
		} else if d != 0 {
			c.bndstrDrain[pac] = 0
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
	before := c.stats()
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
	c.bndstrDrain = own.bndstrDrain
	clear(c.bndstrDrain)
	for _, d := range s.drains {
		c.bndstrDrain[d.pac] = d.cycle
	}
	c.port, c.dPort = own.port, own.dPort
	c.port.restore(&s.port)
	c.dPort.restore(&s.dPort)
	if c.tel != nil {
		// A restore consumes no instructions: keep its jump in the
		// statistics out of telemetry windows, as a fast-forward's is.
		c.tel.skip(before, c.stats())
	}
	return nil
}
