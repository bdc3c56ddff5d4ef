package cpu

import (
	"aos/internal/isa"
	"aos/internal/mcu"
	"aos/internal/pa"
)

// Mode selects how the core consumes the instruction stream.
type Mode uint8

const (
	// ModeDetailed is the full timing model: port scheduling, structural
	// back-pressure, cycle accounting (the default).
	ModeDetailed Mode = iota
	// ModeFastForward is functional warming: every access still walks the
	// cache hierarchy, the branch predictor still trains, the BWB still
	// learns ways — so the micro-architectural state a later detailed
	// window observes is warm — but no port/queue/cycle bookkeeping runs.
	// The commit clock does not advance in this mode.
	ModeFastForward
)

// SetMode switches the consumption mode. Switching is legal at any
// instruction boundary; the SMARTS driver flips it at segment boundaries.
// Attached telemetry leaves what a fast-forward stretch consumed out of
// its sample windows.
func (c *Core) SetMode(m Mode) {
	if c.tel != nil && m != c.mode {
		if m == ModeFastForward {
			c.tel.ffStart = c.stats()
		} else {
			c.tel.skip(c.tel.ffStart, c.stats())
		}
	}
	c.mode = m
}

// Mode reports the current consumption mode.
func (c *Core) Mode() Mode { return c.mode }

// Insts returns instructions consumed since the last ResetStats (both
// modes advance it; only detailed segments advance the commit clock).
func (c *Core) Insts() uint64 { return c.insts }

// emitFF is the fast-forward path: functional warming only.
//
// It reproduces, access for access, the cache/predictor/BWB reference
// stream of the detailed path — I-line fetches, data reads/writes, HBT way
// walks, bounds-store drains, resize invalidations, predictor training
// (the same TAGE Update the detailed path makes, its prediction unused
// here) — while skipping everything keyed to cycles. One timing-dependent
// effect is deliberately absent and is part of the sampling error budget
// quantified by the error-bound test: bounds forwarding from in-flight
// bndstrs (it needs issue/drain cycles), so a signed access that detailed
// mode would have forwarded still walks its HBT ways here. With forwarding disabled the warmed state is bit-identical to
// detailed consumption (TestFFWarmingMatchesDetailed pins this).
func (c *Core) emitFF(in *isa.Inst) {
	c.insts++

	// I-side warming at line granularity, as fetch() references it.
	if line := in.PC &^ 63; line != c.lastLine {
		c.hier.FetchInst(in.PC)
		c.lastLine = line
	}

	// The access order below mirrors the detailed pipeline exactly —
	// execute-stage reads, then the MCU validation walk, then post-commit
	// store/drain writes — so the warmed cache state (LRU, dirtiness,
	// shared-L2 interleaving) is bit-identical to a detailed core consuming
	// the same stream (modulo the forwarding caveat above).
	va := pa.VA(in.Addr)
	switch {
	case in.Op == isa.OpLoad:
		c.hier.AccessData(va, false)
	case in.Op == isa.OpWDCheck && in.Addr != 0:
		c.hier.AccessBounds(va, false)
		c.boundsAccess++
	case in.Op == isa.OpBranch:
		c.bp.Update(in.BranchID, in.Taken)
	}

	switch {
	case in.Op.IsMem() && in.Signed && in.Op != isa.OpWDCheck:
		c.checked++
		for _, w := range c.checkWays(in) {
			c.hier.AccessBounds(in.RowAddr+uint64(w)<<6, false)
			c.boundsAccess++
		}
		if c.bwb != nil && in.HomeWay >= 0 {
			c.bwb.Update(mcu.BWBTag(va, in.AHC, in.PAC), int(in.HomeWay))
		}
	case in.Op.IsBoundsOp():
		if in.Resize {
			c.resizes++
			oldBytes := uint64(in.Assoc) / 2 * 4 << 20
			c.hier.AddBulkTraffic(2 * oldBytes)
			if c.bwb != nil {
				c.bwb.Invalidate()
			}
		}
		limit := int(in.HomeWay)
		if limit < 0 {
			limit = int(in.Assoc) - 1
		}
		for w := 0; w <= limit; w++ {
			c.hier.AccessBounds(in.RowAddr+uint64(w)<<6, false)
			c.boundsAccess++
		}
	}

	// Post-commit effects: store-buffer / tag / bounds-store drains.
	switch in.Op {
	case isa.OpStore, isa.OpSTG:
		c.hier.AccessData(va, true)
	case isa.OpBndstr:
		c.hier.AccessBounds(in.RowAddr+uint64(maxInt8(in.HomeWay, 0))<<6, true)
		c.boundsAccess++
	case isa.OpBndclr:
		if in.HomeWay >= 0 {
			c.hier.AccessBounds(in.RowAddr+uint64(in.HomeWay)<<6, true)
			c.boundsAccess++
		}
	default:
		// No post-commit memory effect.
	}
}
