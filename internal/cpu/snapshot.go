package cpu

import (
	"fmt"

	"aos/internal/bpred"
	"aos/internal/cache"
	"aos/internal/isa"
	"aos/internal/mcu"
)

// portSchedState is a deep copy of one port scheduler's reservation window.
type portSchedState struct {
	ring     []uint8
	base     uint64
	overflow map[uint64]uint8
}

func (s *portSched) snapshot() portSchedState {
	st := portSchedState{
		ring: append([]uint8(nil), s.ring...),
		base: s.base,
	}
	if len(s.overflow) != 0 {
		st.overflow = make(map[uint64]uint8, len(s.overflow))
		for c, n := range s.overflow { //aoslint:allow mapiter — order-free: builds an independent map, no order-dependent effects
			st.overflow[c] = n
		}
	}
	return st
}

func (s *portSched) restore(st portSchedState) {
	copy(s.ring, st.ring)
	s.base = st.base
	s.overflow = nil
	if len(st.overflow) != 0 {
		s.overflow = make(map[uint64]uint8, len(st.overflow))
		for c, n := range st.overflow { //aoslint:allow mapiter — order-free: builds an independent map, no order-dependent effects
			s.overflow[c] = n
		}
	}
}

// CoreState is a deep checkpoint of the timing model: the warmed memory
// system and predictor, every occupancy ring and clock, and the statistics
// counters. Runtime wiring — config, the wayScratch buffer, the observer,
// telemetry probes, and the consumption mode — is NOT captured; Restore
// keeps the target core's wiring.
type CoreState struct {
	hier *cache.HierarchyState
	bp   *bpred.State
	bwb  *mcu.BWBState // nil when the BWB is disabled

	fetchCycle uint64
	fetchCount int
	lastLine   uint64
	redirect   uint64

	regReady [isa.NumRegs]uint64

	robRing []uint64
	robIdx  int
	lqRing  []uint64
	lqIdx   int
	sqRing  []uint64
	sqIdx   int
	mcqRing []uint64
	mcqIdx  int

	lastCommit  uint64
	commitCycle uint64
	commitUsed  int

	port  portSchedState
	dPort portSchedState

	dMSHR    []uint64
	dMSHRIdx int
	bMSHR    []uint64
	bMSHRIdx int

	cryptoFree uint64

	bndstrDrain  []uint64
	checked      uint64
	boundsAccess uint64
	forwards     uint64
	resizes      int
	retireDelay  uint64

	insts      uint64
	statsSince uint64
}

// Snapshot deep-copies the core's simulated state (~1 MB, dominated by the
// bndstr drain table and the port windows). The snapshot is immutable and
// reusable for any number of Restores.
func (c *Core) Snapshot() *CoreState {
	s := &CoreState{
		hier:         c.hier.Snapshot(),
		bp:           c.bp.Snapshot(),
		fetchCycle:   c.fetchCycle,
		fetchCount:   c.fetchCount,
		lastLine:     c.lastLine,
		redirect:     c.redirect,
		regReady:     c.regReady,
		robRing:      append([]uint64(nil), c.robRing...),
		robIdx:       c.robIdx,
		lqRing:       append([]uint64(nil), c.lqRing...),
		lqIdx:        c.lqIdx,
		sqRing:       append([]uint64(nil), c.sqRing...),
		sqIdx:        c.sqIdx,
		mcqRing:      append([]uint64(nil), c.mcqRing...),
		mcqIdx:       c.mcqIdx,
		lastCommit:   c.lastCommit,
		commitCycle:  c.commitCycle,
		commitUsed:   c.commitUsed,
		port:         c.port.snapshot(),
		dPort:        c.dPort.snapshot(),
		dMSHR:        append([]uint64(nil), c.dMSHR...),
		dMSHRIdx:     c.dMSHRIdx,
		bMSHR:        append([]uint64(nil), c.bMSHR...),
		bMSHRIdx:     c.bMSHRIdx,
		cryptoFree:   c.cryptoFree,
		bndstrDrain:  append([]uint64(nil), c.bndstrDrain...),
		checked:      c.checked,
		boundsAccess: c.boundsAccess,
		forwards:     c.forwards,
		resizes:      c.resizes,
		retireDelay:  c.retireDelay,
		insts:        c.insts,
		statsSince:   c.statsSince,
	}
	if c.bwb != nil {
		s.bwb = c.bwb.Snapshot()
	}
	return s
}

// Restore rewinds the core to a snapshot taken from an identically
// configured core, keeping the target's runtime wiring (config, observer,
// telemetry, mode). The snapshot stays valid for further Restores.
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
	c.fetchCycle = s.fetchCycle
	c.fetchCount = s.fetchCount
	c.lastLine = s.lastLine
	c.redirect = s.redirect
	c.regReady = s.regReady
	copy(c.robRing, s.robRing)
	c.robIdx = s.robIdx
	copy(c.lqRing, s.lqRing)
	c.lqIdx = s.lqIdx
	copy(c.sqRing, s.sqRing)
	c.sqIdx = s.sqIdx
	copy(c.mcqRing, s.mcqRing)
	c.mcqIdx = s.mcqIdx
	c.lastCommit = s.lastCommit
	c.commitCycle = s.commitCycle
	c.commitUsed = s.commitUsed
	c.port.restore(s.port)
	c.dPort.restore(s.dPort)
	copy(c.dMSHR, s.dMSHR)
	c.dMSHRIdx = s.dMSHRIdx
	copy(c.bMSHR, s.bMSHR)
	c.bMSHRIdx = s.bMSHRIdx
	c.cryptoFree = s.cryptoFree
	copy(c.bndstrDrain, s.bndstrDrain)
	c.checked = s.checked
	c.boundsAccess = s.boundsAccess
	c.forwards = s.forwards
	c.resizes = s.resizes
	c.retireDelay = s.retireDelay
	c.insts = s.insts
	c.statsSince = s.statsSince
	if c.tel != nil {
		// A restore consumes no instructions: keep its jump in the
		// statistics out of telemetry windows, as a fast-forward's is.
		c.tel.skip(before, c.stats())
	}
	return nil
}
