// Package cpu is the timing simulator: an out-of-order core model with the
// paper's Table IV configuration (8-wide, 192-entry ROB, 32-entry load and
// store queues, 48-entry MCQ, L-TAGE-class branch prediction) attached to
// the cache hierarchy of internal/cache and the MCU structures of
// internal/mcu.
//
// The model is dependency-driven: it consumes the functional machine's
// instruction stream in program order and computes, for every instruction,
// its fetch, dispatch, issue, completion and commit cycles from data
// dependencies, structural occupancy (ROB/LQ/SQ/MCQ back-pressure), cache
// latencies, branch-misprediction redirects, and — for AOS — the MCU's
// bounds-check latency, which delays retirement until validation finishes
// (§III-C.4). This one-pass formulation reproduces the first-order
// behaviour of a cycle-stepped OoO pipeline at simulation speeds that make
// the paper's 80-run evaluation matrix practical in Go.
package cpu

import (
	"aos/internal/bpred"
	"aos/internal/cache"
	"aos/internal/isa"
	"aos/internal/mcu"
	"aos/internal/pa"
)

// Config is the core configuration (defaults follow Table IV).
type Config struct {
	Width             int // fetch/commit width
	ROBSize           int
	LQSize, SQSize    int
	MCQSize           int
	FrontendDepth     int // fetch-to-dispatch stages
	MispredictPenalty int // extra redirect cycles beyond resolution
	Caches            cache.HierarchyConfig
	MCU               mcu.Options
	// BoundsPortWidth is how many HBT line accesses the MCU can start per
	// cycle (the L1-B / lock-cache port bandwidth).
	BoundsPortWidth int
	// DataPortWidth is how many L1-D accesses can start per cycle.
	DataPortWidth int
	// DataMSHRs bounds outstanding L1-D misses (memory-level parallelism).
	DataMSHRs int
	// BoundsMSHRs bounds outstanding bounds-path misses.
	BoundsMSHRs int
}

// DefaultConfig returns the paper's platform configuration with all AOS
// optimizations (L1-B cache, BWB, bounds forwarding) enabled.
func DefaultConfig() Config {
	return Config{
		Width:             8,
		ROBSize:           192,
		LQSize:            32,
		SQSize:            32,
		MCQSize:           48,
		FrontendDepth:     6,
		MispredictPenalty: 10,
		Caches:            cache.DefaultConfig(),
		MCU:               mcu.Options{Forwarding: true, UseBWB: true},
		BoundsPortWidth:   1,
		DataPortWidth:     2,
		DataMSHRs:         10,
		BoundsMSHRs:       6,
	}
}

// Result is the timing outcome of one run.
type Result struct {
	Cycles uint64
	Insts  uint64

	Branch bpred.Stats

	Traffic      cache.Traffic
	L1I, L1D, L2 cache.Stats
	L1B          *cache.Stats // nil when no bounds cache configured
	DRAMAccesses uint64

	// CheckedOps counts MCU bounds checks for loads/stores; BoundsAccesses
	// counts the HBT line loads they and the bounds ops performed
	// (Fig 17's metric is BoundsAccesses/CheckedOps).
	CheckedOps     uint64
	BoundsAccesses uint64
	BWB            mcu.BWBStats
	Forwards       uint64
	Resizes        int

	// RetireDelay accumulates cycles signed accesses spent waiting for
	// validation after their data was ready (delayed-retirement cost).
	RetireDelay uint64
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// Core is the timing model. It implements isa.Sink; feed it the functional
// machine's stream and call Finalize.
type Core struct {
	cfg  Config
	hier *cache.Hierarchy
	bp   *bpred.TAGE
	bwb  *mcu.BWB

	// coreState is everything a checkpoint captures beyond the memory
	// system, predictor and BWB (see snapshot.go).
	coreState

	// wayScratch is the reusable buffer checkWays fills: the MCQ FSM's way
	// sequence is consumed before the next instruction, so one buffer per
	// core keeps the signed-access path allocation-free.
	wayScratch []int

	// observer, when set, receives per-instruction pipeline timestamps
	// (debug/visualization; nil in normal runs).
	observer func(in *isa.Inst, t Timestamps)

	// drainSet marks the PACs whose bndstrDrain entry is nonzero, one bit
	// each (8 KiB for the 65,536-entry table), so Snapshot walks and
	// Restore clears only those entries. It is derived from the table:
	// Restore rebuilds it from the checkpoint's drain entries.
	drainSet [1 << 10]uint64

	// tel is the flight recorder (nil when telemetry is disabled);
	// nextSample mirrors its next-due commit cycle so the per-
	// instruction check in Emit is a single compare against an
	// unreachable sentinel when disabled (see telemetry.go).
	tel        *coreTelemetry
	nextSample uint64

	// mode selects detailed timing vs. functional fast-forward warming
	// (see ff.go). Runtime control, not simulated state.
	mode Mode
}

// coreState is the timing model's simulated state: clocks, occupancy
// rings, port and MSHR reservations, and the statistics counters. It is
// the one field list checkpoints capture: Snapshot copies it whole and
// clones its buffers, Restore assigns it back.
type coreState struct {
	// Front end.
	fetchCycle uint64
	fetchCount int
	lastLine   uint64
	redirect   uint64

	// Register availability.
	regReady [isa.NumRegs]uint64

	// Structural occupancy rings (cycle when the slot frees).
	robRing []uint64
	robIdx  int
	lqRing  []uint64
	lqIdx   int
	sqRing  []uint64
	sqIdx   int
	mcqRing []uint64
	mcqIdx  int

	// In-order commit bookkeeping.
	lastCommit  uint64
	commitCycle uint64
	commitUsed  int

	// Port schedulers: per-cycle start-slot reservations in a dense ring
	// window over the commit frontier (see portsched.go), so out-of-order
	// start times interleave correctly without per-access map probes. The
	// bounds port is the L1-B lookup port; the data ports are the L1-D
	// read ports. Without an L1-B, bounds lookups contend for the data
	// ports (§V-F1's motivation).
	port  portSched
	dPort portSched

	// MSHR rings: completion times of the N most recent outstanding misses
	// on each path; a new miss waits for the oldest slot.
	dMSHR    []uint64
	dMSHRIdx int
	bMSHR    []uint64
	bMSHRIdx int

	// cryptoFree models the single non-pipelined QARMA unit shared by
	// pacia/autia/pacma (4-cycle occupancy each).
	cryptoFree uint64

	// bndstrDrain is the in-flight bounds-store drain table, indexed
	// directly by PAC: bndstrDrain[pac] is the cycle the most recent bndstr
	// with that PAC finishes draining through the write buffer (0 = never).
	// Invalidation is implicit in the cycle arithmetic: issue cycles only
	// grow, so an entry whose drain cycle has passed can never satisfy
	// `drain > issue` again — a recycled PAC from a long-past bndstr cannot
	// trigger a spurious forward, and no sweep or epoch bump is needed
	// (TestBndstrDrainStaleness pins this).
	bndstrDrain  []uint64
	checked      uint64
	boundsAccess uint64
	forwards     uint64
	resizes      int
	retireDelay  uint64

	insts uint64
	// statsSince is the commit cycle at the last ResetStats (warmup end).
	statsSince uint64
}

// Timestamps are one instruction's pipeline event cycles.
type Timestamps struct {
	Fetch, Dispatch, Issue, Complete, Commit uint64
	// MCUDone is the bounds-validation completion (0 if unchecked).
	MCUDone uint64
}

// SetObserver installs a per-instruction pipeline observer (nil disables).
func (c *Core) SetObserver(f func(in *isa.Inst, t Timestamps)) { c.observer = f }

// New builds a core; it panics on invalid cache geometry (configs are
// literals).
func New(cfg Config) *Core {
	if cfg.Width == 0 {
		cfg = DefaultConfig()
	}
	h, err := cache.NewHierarchy(cfg.Caches)
	if err != nil {
		panic(err)
	}
	var bwb *mcu.BWB
	if cfg.MCU.UseBWB {
		bwb = mcu.NewBWB()
	}
	return &Core{
		cfg:  cfg,
		hier: h,
		bp:   bpred.NewTAGE(),
		bwb:  bwb,
		coreState: coreState{
			robRing:     make([]uint64, cfg.ROBSize),
			lqRing:      make([]uint64, cfg.LQSize),
			sqRing:      make([]uint64, cfg.SQSize),
			mcqRing:     make([]uint64, cfg.MCQSize),
			dMSHR:       make([]uint64, cfg.DataMSHRs),
			bMSHR:       make([]uint64, cfg.BoundsMSHRs),
			port:        newPortSched(cfg.BoundsPortWidth),
			dPort:       newPortSched(cfg.DataPortWidth),
			bndstrDrain: make([]uint64, 1<<16),
			lastLine:    ^uint64(0),
		},
		wayScratch: make([]int, 0, 64),
		nextSample: ^uint64(0),
	}
}

// Hierarchy exposes the memory system (for inspection in tests).
func (c *Core) Hierarchy() *cache.Hierarchy { return c.hier }

// LastCommit returns the commit cycle of the most recent instruction.
func (c *Core) LastCommit() uint64 { return c.lastCommit }

// ResetStats starts the measurement window: all statistics are cleared
// while the micro-architectural state (caches, predictor, BWB, clocks)
// stays warm. Use after a warmup phase, mirroring the paper's methodology
// of measuring a window of a much longer execution.
func (c *Core) ResetStats() {
	c.statsSince = c.lastCommit
	c.insts = 0
	c.checked = 0
	c.boundsAccess = 0
	c.forwards = 0
	c.resizes = 0
	c.retireDelay = 0
	c.hier.ResetStats()
	c.bp.ResetStats()
	if c.bwb != nil {
		c.bwb.ResetStats()
	}
	if c.tel != nil {
		c.tel.onResetStats(c.lastCommit)
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// fetch assigns the instruction's fetch cycle, modeling width, I-cache
// lines and misprediction redirects.
func (c *Core) fetch(in *isa.Inst) uint64 {
	if c.redirect > c.fetchCycle {
		c.fetchCycle = c.redirect
		c.fetchCount = 0
	}
	line := in.PC &^ 63
	if line != c.lastLine {
		lat := c.hier.FetchInst(in.PC)
		if lat > 1 {
			c.fetchCycle += uint64(lat - 1)
			c.fetchCount = 0
		}
		c.lastLine = line
	}
	if c.fetchCount >= c.cfg.Width {
		c.fetchCycle++
		c.fetchCount = 0
	}
	c.fetchCount++
	return c.fetchCycle
}

// execLatency returns the functional-unit latency for non-memory ops.
func execLatency(op isa.Op) uint64 {
	switch op {
	case isa.OpMul:
		return 3
	case isa.OpFP:
		return 4
	case isa.OpPacma, isa.OpPacia, isa.OpAutia:
		return pa.SignAuthLatency
	case isa.OpXpacm, isa.OpAutm:
		return pa.StripLatency
	default:
		return 1
	}
}

// reservePort reserves a bounds-lookup port start slot. With an L1-B, the
// MCU owns a dedicated lookup port. Without one, the LSU arbitrates: the
// MCU still gets at most BoundsPortWidth grants per cycle, and each grant
// also occupies one of the L1-D data ports (displacing loads).
func (c *Core) reservePort(at uint64) uint64 {
	if c.hier.HasBoundsCache() {
		return c.port.reserve(at)
	}
	grant := c.port.reserve(at)
	return c.dPort.reserve(grant)
}

// reserveDataPort reserves an L1-D access start slot.
func (c *Core) reserveDataPort(at uint64) uint64 {
	return c.dPort.reserve(at)
}

// prunePorts advances the schedulers' window floors behind the commit
// frontier on the historical cadence (every pruneEvery instructions, to
// lastCommit-pruneMargin). With the ring schedulers this is O(advance)
// slot clearing instead of a sweep over live map keys, but the floor
// values themselves — which clamp reservation start cycles in deeply
// memory-bound phases — are unchanged.
func (c *Core) prunePorts() {
	below := uint64(0)
	if c.lastCommit > pruneMargin {
		below = c.lastCommit - pruneMargin
	}
	c.port.advance(below)
	c.dPort.advance(below)
}

// mcuAccess performs one bounds-line access starting no earlier than at,
// subject to the bounds read-port start bandwidth, and returns its
// completion cycle. Writes (bounds-store drains) go through the write
// buffer and do not contend for the lookup port.
func (c *Core) mcuAccess(at uint64, addr uint64, write bool) uint64 {
	start := at
	if !write {
		start = c.reservePort(at)
		if c.tel != nil {
			c.tel.boundsPortWait.Add(start - at)
		}
	}
	lat := c.hier.AccessBounds(addr, write)
	c.boundsAccess++
	if lat > 1 && !write {
		slot := &c.bMSHR[c.bMSHRIdx]
		c.bMSHRIdx = nextSlot(c.bMSHRIdx, len(c.bMSHR))
		if *slot > start {
			start = *slot
		}
		*slot = start + uint64(lat)
	}
	return start + uint64(lat)
}

// checkWays returns the sequence of HBT ways the MCQ FSM visits for a
// load/store check, using the BWB exactly as §V-C describes: a hit starts
// the search at the remembered way; a miss (or a stale hint) searches from
// way 0. The returned slice aliases the core's scratch buffer and is valid
// only until the next checkWays call — callers consume it immediately, so
// the signed-access hot path performs no allocation.
func (c *Core) checkWays(in *isa.Inst) []int {
	ways := c.wayScratch[:0]
	home := int(in.HomeWay)
	assoc := int(in.Assoc)
	if home < 0 {
		// Bounds-check failure: the search visits every way.
		for i := 0; i < assoc; i++ {
			ways = append(ways, i) //aoslint:allow hotpathalloc — wayScratch is reused; growth is capped at MaxAssoc and amortized to zero
		}
		c.wayScratch = ways
		return ways
	}
	if c.bwb != nil {
		tag := mcu.BWBTag(pa.VA(in.Addr), in.AHC, in.PAC)
		if w, ok := c.bwb.Lookup(tag); ok && w < assoc {
			if w == home {
				ways = append(ways, w) //aoslint:allow hotpathalloc — wayScratch is reused; growth is capped at MaxAssoc and amortized to zero
				c.wayScratch = ways
				return ways
			}
			// Stale hint: the FSM falls back to a way-0 search.
			ways = append(ways, w) //aoslint:allow hotpathalloc — wayScratch is reused; growth is capped at MaxAssoc and amortized to zero
			for i := 0; i <= home; i++ {
				ways = append(ways, i) //aoslint:allow hotpathalloc — wayScratch is reused; growth is capped at MaxAssoc and amortized to zero
			}
			c.wayScratch = ways
			return ways
		}
	}
	for i := 0; i <= home; i++ {
		ways = append(ways, i) //aoslint:allow hotpathalloc — wayScratch is reused; growth is capped at MaxAssoc and amortized to zero
	}
	c.wayScratch = ways
	return ways
}

// EmitBatch processes a batch of instructions in order; implements
// isa.BatchSink. Identical to per-instruction Emit calls — batching only
// amortizes the producer's interface dispatch and improves locality.
func (c *Core) EmitBatch(batch []isa.Inst) {
	for i := range batch {
		c.Emit(&batch[i])
	}
}

// Emit processes one instruction; implements isa.Sink.
func (c *Core) Emit(in *isa.Inst) {
	if c.mode == ModeFastForward {
		c.emitFF(in)
		return
	}
	c.insts++
	if c.insts%pruneEvery == 0 {
		c.prunePorts()
	}

	fetch := c.fetch(in)
	dispatch := fetch + uint64(c.cfg.FrontendDepth)
	frontDispatch := dispatch

	// Structural back-pressure: ROB, LQ/SQ, MCQ.
	dispatch = max64(dispatch, c.robRing[c.robIdx])
	isMem := in.Op.IsMem()
	// The MCQ is an AOS structure: memory instructions and bounds ops
	// occupy it. Watchdog's check micro-ops are ordinary pipeline ops.
	usesMCQ := (isMem && in.Op != isa.OpWDCheck) || in.Op.IsBoundsOp()
	switch {
	case in.Op == isa.OpLoad:
		dispatch = max64(dispatch, c.lqRing[c.lqIdx])
	case in.Op == isa.OpStore, in.Op == isa.OpSTG:
		// Tag-granule stores share the store queue: MTE's stg writes its
		// granule's tag through the same drain path as a data store.
		dispatch = max64(dispatch, c.sqRing[c.sqIdx])
	}
	if usesMCQ {
		dispatch = max64(dispatch, c.mcqRing[c.mcqIdx])
	}
	if c.tel != nil {
		c.telNoteDispatch(in, frontDispatch, dispatch, usesMCQ)
	}
	// Dispatch stalls back up the front end (this is how MCQ back-pressure
	// throttles speculation).
	if lag := dispatch - uint64(c.cfg.FrontendDepth); lag > c.fetchCycle {
		c.fetchCycle = lag
		c.fetchCount = 0
	}

	// Source operands.
	ready := dispatch
	if in.Src1 != isa.RegNone {
		ready = max64(ready, c.regReady[in.Src1])
	}
	if in.Src2 != isa.RegNone {
		ready = max64(ready, c.regReady[in.Src2])
	}
	issue := ready

	// Execute.
	var done uint64
	va := pa.VA(in.Addr)
	switch {
	case in.Op == isa.OpLoad:
		start := c.reserveDataPort(issue)
		if c.tel != nil {
			c.tel.dataPortWait.Add(start - issue)
		}
		lat := c.hier.AccessData(va, false)
		if lat > 1 {
			// L1-D miss: allocate an MSHR; a full MSHR file stalls the miss.
			slot := &c.dMSHR[c.dMSHRIdx]
			c.dMSHRIdx = nextSlot(c.dMSHRIdx, len(c.dMSHR))
			start = max64(start, *slot)
			*slot = start + uint64(lat)
		}
		done = start + uint64(lat)
	case in.Op == isa.OpWDCheck && in.Addr != 0:
		// Watchdog's check micro-op loads the lock location through its
		// lock-location cache (the structure the paper likens the L1-B to).
		done = c.mcuAccess(issue, va, false)
	case in.Op == isa.OpStore, in.Op == isa.OpSTG:
		done = issue + 1 // address generation; data drains at commit
	case in.Op.IsBranch():
		done = issue + 1
	case in.Op == isa.OpPacma || in.Op == isa.OpPacia || in.Op == isa.OpAutia:
		// One partially-pipelined crypto unit (4-cycle latency, one new
		// QARMA operation every 2 cycles): sign/auth bursts queue.
		start := max64(issue, c.cryptoFree)
		done = start + execLatency(in.Op)
		c.cryptoFree = start + 2
	default:
		done = issue + execLatency(in.Op)
	}

	// MCU validation (§V-A): signed accesses may not retire until their
	// bounds check completes; bounds ops must finish their occupancy walk.
	mcuDone := uint64(0)
	switch {
	case isMem && in.Signed && in.Op != isa.OpWDCheck:
		c.checked++
		fw := false
		if c.cfg.MCU.Forwarding {
			if drain := c.bndstrDrain[in.PAC]; drain > issue {
				// An in-flight bndstr with this PAC: forward its bounds.
				fw = true
				c.forwards++
				mcuDone = issue + 1
			}
		}
		if !fw {
			start := issue
			if drain := c.bndstrDrain[in.PAC]; drain > start && !c.cfg.MCU.Forwarding {
				// Without forwarding the check replays until the bounds
				// store drains (§V-E).
				start = drain
			}
			t := start
			for _, w := range c.checkWays(in) {
				t = c.mcuAccess(t, in.RowAddr+uint64(w)<<6, false)
			}
			mcuDone = t
			if c.bwb != nil && in.HomeWay >= 0 {
				c.bwb.Update(mcu.BWBTag(va, in.AHC, in.PAC), int(in.HomeWay))
			}
		}
	case in.Op.IsBoundsOp():
		if in.Resize {
			// Gradual HBT resize: non-blocking for the program, but the
			// migration traffic is real, and the BWB's remembered ways die.
			c.resizes++
			oldBytes := uint64(in.Assoc) / 2 * 4 << 20
			c.hier.AddBulkTraffic(2 * oldBytes)
			if c.bwb != nil {
				c.bwb.Invalidate()
			}
			if c.tel != nil {
				c.telNoteResize(in, issue, oldBytes)
			}
		}
		// Occupancy-check walk over ways 0..HomeWay.
		t := issue
		limit := int(in.HomeWay)
		if limit < 0 {
			limit = int(in.Assoc) - 1 // failing clear searches every way
		}
		for w := 0; w <= limit; w++ {
			t = c.mcuAccess(t, in.RowAddr+uint64(w)<<6, false)
		}
		mcuDone = t
	}
	// Validation overlaps the commit stage: a check that completes within
	// one cycle of the data does not delay retirement.
	if mcuDone > 0 {
		mcuDone--
	}
	complete := max64(done, mcuDone)
	if mcuDone > done {
		c.retireDelay += mcuDone - done
	}

	// Branch resolution and misprediction redirect.
	if in.Op == isa.OpBranch {
		if c.bp.Update(in.BranchID, in.Taken) != in.Taken {
			r := done + uint64(c.cfg.MispredictPenalty)
			if r > c.redirect {
				c.redirect = r
			}
		}
	}

	// In-order commit, width-limited.
	commit := max64(complete+1, c.lastCommit)
	if commit > c.commitCycle {
		c.commitCycle = commit
		c.commitUsed = 0
	}
	if c.commitUsed >= c.cfg.Width {
		c.commitCycle++
		c.commitUsed = 0
	}
	c.commitUsed++
	commit = c.commitCycle
	c.lastCommit = commit
	if commit >= c.nextSample {
		// Telemetry sample boundary (nextSample is an unreachable
		// sentinel when disabled; see AttachTelemetry).
		c.takeSample()
	}

	// Post-commit effects.
	release := commit
	switch in.Op {
	case isa.OpStore:
		c.hier.AccessData(va, true) // drain the store buffer
	case isa.OpSTG:
		c.hier.AccessData(va, true) // tag-granule write drains like a store
	case isa.OpBndstr:
		// The FSM sends the bounds-store once committed and moves to Done;
		// the MCQ slot frees at send, while the write completes in the
		// background (tracked for the forwarding/replay window).
		drain := c.mcuAccess(commit+1, in.RowAddr+uint64(maxInt8(in.HomeWay, 0))<<6, true)
		c.bndstrDrain[in.PAC] = drain
		c.drainSet[in.PAC>>6] |= 1 << (in.PAC & 63)
		release = commit + 1
	case isa.OpBndclr:
		if in.HomeWay >= 0 {
			c.mcuAccess(commit+1, in.RowAddr+uint64(in.HomeWay)<<6, true)
		}
		release = commit + 1
	default:
		// Other classes have no post-commit memory effects.
	}

	if c.observer != nil {
		c.observer(in, Timestamps{
			Fetch: fetch, Dispatch: dispatch, Issue: issue,
			Complete: complete, Commit: commit, MCUDone: mcuDone,
		})
	}

	// Writeback / slot recycling.
	if in.Dest != isa.RegNone {
		c.regReady[in.Dest] = complete
	}
	c.robRing[c.robIdx] = commit
	c.robIdx = nextSlot(c.robIdx, len(c.robRing))
	switch {
	case in.Op == isa.OpLoad:
		c.lqRing[c.lqIdx] = commit
		c.lqIdx = nextSlot(c.lqIdx, len(c.lqRing))
	case in.Op == isa.OpStore, in.Op == isa.OpSTG:
		c.sqRing[c.sqIdx] = commit
		c.sqIdx = nextSlot(c.sqIdx, len(c.sqRing))
	}
	if usesMCQ {
		c.mcqRing[c.mcqIdx] = release
		c.mcqIdx = nextSlot(c.mcqIdx, len(c.mcqRing))
	}
}

// nextSlot returns the ring slot after i in a ring of n slots. It wraps
// by compare: Table IV's ROB (192) and MCQ (48) are not powers of two, so
// a remainder would divide on every instruction.
func nextSlot(i, n int) int {
	if i++; i == n {
		return 0
	}
	return i
}

func maxInt8(v int8, lo int8) int8 {
	if v > lo {
		return v
	}
	return lo
}

// Finalize returns the run's timing result.
func (c *Core) Finalize() Result {
	r := Result{
		Cycles:         c.lastCommit - c.statsSince,
		Insts:          c.insts,
		Branch:         c.bp.Stats(),
		Traffic:        c.hier.Traffic(),
		L1I:            c.hier.L1I.Stats(),
		L1D:            c.hier.L1D.Stats(),
		L2:             c.hier.L2.Stats(),
		DRAMAccesses:   c.hier.DRAMAccesses,
		CheckedOps:     c.checked,
		BoundsAccesses: c.boundsAccess,
		Forwards:       c.forwards,
		Resizes:        c.resizes,
		RetireDelay:    c.retireDelay,
	}
	if c.hier.L1B != nil {
		s := c.hier.L1B.Stats()
		r.L1B = &s
	}
	if c.bwb != nil {
		r.BWB = c.bwb.Stats()
	}
	return r
}
