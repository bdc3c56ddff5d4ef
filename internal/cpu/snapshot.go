package cpu

import (
	"fmt"
	"maps"

	"aos/internal/bpred"
	"aos/internal/cache"
	"aos/internal/mcu"
)

// clone returns a copy of the scheduler that shares no storage with it.
func (s portSched) clone() portSched {
	s.ring = append([]uint8(nil), s.ring...)
	s.overflow = cloneOverflow(s.overflow)
	return s
}

// restore rewinds the scheduler to st's reservations in its own ring; its
// width and mask are construction-time and stay.
func (s *portSched) restore(st *portSched) {
	copy(s.ring, st.ring)
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
// keeps the target core's wiring.
type CoreState struct {
	coreState
	hier *cache.HierarchyState
	bp   *bpred.State
	bwb  *mcu.BWBState // nil when the BWB is disabled
}

// Snapshot deep-copies the core's simulated state (~1 MB, dominated by the
// bndstr drain table and the port windows). The snapshot is immutable and
// reusable for any number of Restores.
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
	s.bndstrDrain = append([]uint64(nil), c.bndstrDrain...)
	s.port, s.dPort = c.port.clone(), c.dPort.clone()
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
	c.bndstrDrain = refill(own.bndstrDrain, s.bndstrDrain)
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
