package cpu

import (
	"aos/internal/isa"
	"aos/internal/mcu"
	"aos/internal/telemetry"
)

// coreTelemetry is the timing core's flight-recorder wiring: the
// probes it registers plus the previous-sample snapshot used to turn
// the core's cumulative stats into per-window counter deltas.
//
// Everything here is off the critical path: hot-path integration
// points in Emit are single nil checks (or the one nextSample
// compare), and the heavier work — ring occupancy scans, rate
// computation — runs only at sample boundaries.
type coreTelemetry struct {
	tl *telemetry.Timeline

	// Sample-time derived counters (fed by deltas of the core's
	// cumulative stats, so ResetStats at the warmup boundary just
	// clears the snapshot below).
	insts       *telemetry.Counter
	cycles      *telemetry.Counter
	checked     *telemetry.Counter
	boundsAcc   *telemetry.Counter
	forwards    *telemetry.Counter
	retireDelay *telemetry.Counter
	bwbHits     *telemetry.Counter
	bwbMisses   *telemetry.Counter
	resizes     *telemetry.Counter

	// Hot-path counters (guarded adds in Emit).
	stallROB       *telemetry.Counter
	stallLQ        *telemetry.Counter
	stallSQ        *telemetry.Counter
	stallMCQ       *telemetry.Counter
	boundsPortWait *telemetry.Counter
	dataPortWait   *telemetry.Counter

	// Sample-time gauges.
	ipcMilli    *telemetry.Gauge
	mcqOcc      *telemetry.Gauge
	robOcc      *telemetry.Gauge
	lqOcc       *telemetry.Gauge
	sqOcc       *telemetry.Gauge
	dMSHROcc    *telemetry.Gauge
	bMSHROcc    *telemetry.Gauge
	bwbHitPct   *telemetry.Gauge
	probeDepthM *telemetry.Gauge

	// prev is the cumulative-stat snapshot at the previous sample, and
	// prevCycle its commit cycle.
	prev      coreStats
	prevCycle uint64
	// ffStart is the snapshot where the current fast-forward stretch
	// began (meaningful in ModeFastForward only).
	ffStart coreStats
}

// coreStats is a snapshot of the core's cumulative statistics.
type coreStats struct {
	insts       uint64
	checked     uint64
	boundsAcc   uint64
	forwards    uint64
	retireDelay uint64
	bwb         mcu.BWBStats
	resizes     int
}

func (c *Core) stats() coreStats {
	s := coreStats{
		insts:       c.insts,
		checked:     c.checked,
		boundsAcc:   c.boundsAccess,
		forwards:    c.forwards,
		retireDelay: c.retireDelay,
		resizes:     c.resizes,
	}
	if c.bwb != nil {
		s.bwb = c.bwb.Stats()
	}
	return s
}

// shift returns s advanced by the progress from a to b.
func (s coreStats) shift(a, b coreStats) coreStats {
	s.insts += b.insts - a.insts
	s.checked += b.checked - a.checked
	s.boundsAcc += b.boundsAcc - a.boundsAcc
	s.forwards += b.forwards - a.forwards
	s.retireDelay += b.retireDelay - a.retireDelay
	s.bwb.Hits += b.bwb.Hits - a.bwb.Hits
	s.bwb.Misses += b.bwb.Misses - a.bwb.Misses
	s.resizes += b.resizes - a.resizes
	return s
}

// skip keeps the progress from a to b, made outside detailed
// consumption (a fast-forward stretch, a checkpoint restore), out of the
// next sample's window, so windowed counters and rates cover detailed
// instructions only.
func (t *coreTelemetry) skip(a, b coreStats) {
	t.prev = t.prev.shift(a, b)
}

func newCoreTelemetry(tl *telemetry.Timeline) *coreTelemetry {
	r := tl.Registry()
	return &coreTelemetry{
		tl:          tl,
		insts:       r.Counter("cpu_insts_total"),
		cycles:      r.Counter("cpu_cycles_total"),
		checked:     r.Counter("mcu_checked_ops_total"),
		boundsAcc:   r.Counter("mcu_bounds_accesses_total"),
		forwards:    r.Counter("mcu_forwards_total"),
		retireDelay: r.Counter("cpu_retire_delay_cycles_total"),
		bwbHits:     r.Counter("mcu_bwb_hits_total"),
		bwbMisses:   r.Counter("mcu_bwb_misses_total"),
		resizes:     r.Counter("hbt_resizes_total"),

		stallROB:       r.Counter("cpu_stall_rob_cycles_total"),
		stallLQ:        r.Counter("cpu_stall_lq_cycles_total"),
		stallSQ:        r.Counter("cpu_stall_sq_cycles_total"),
		stallMCQ:       r.Counter("cpu_stall_mcq_cycles_total"),
		boundsPortWait: r.Counter("mcu_bounds_port_wait_cycles_total"),
		dataPortWait:   r.Counter("cpu_data_port_wait_cycles_total"),

		ipcMilli:    r.Gauge("cpu_ipc_milli"),
		mcqOcc:      r.Gauge("cpu_mcq_occupancy"),
		robOcc:      r.Gauge("cpu_rob_occupancy"),
		lqOcc:       r.Gauge("cpu_lq_occupancy"),
		sqOcc:       r.Gauge("cpu_sq_occupancy"),
		dMSHROcc:    r.Gauge("cpu_data_mshr_occupancy"),
		bMSHROcc:    r.Gauge("mcu_bounds_mshr_occupancy"),
		bwbHitPct:   r.Gauge("mcu_bwb_hit_rate_pct"),
		probeDepthM: r.Gauge("mcu_probe_depth_milli"),
	}
}

// AttachTelemetry enables cycle-windowed sampling: the core registers
// its probes in the timeline's registry and drives Timeline.Sample
// from the commit path every timeline interval. Attach before
// emitting any instructions. With no timeline attached the only
// residue on the hot path is one integer compare against an
// unreachable sentinel, preserving both the zero-allocation
// steady-state contract and byte-identical results.
func (c *Core) AttachTelemetry(tl *telemetry.Timeline) {
	c.tel = newCoreTelemetry(tl)
	c.nextSample = tl.Next()
}

// ringOcc counts slots still held (freeing after the commit frontier).
func ringOcc(ring []uint64, now uint64) uint64 {
	n := uint64(0)
	for _, v := range ring {
		if v > now {
			n++
		}
	}
	return n
}

// takeSample records one telemetry row at the current commit cycle.
// Runs every sampling interval only; allocation here is fine (the
// zero-alloc contract covers the disabled path).
func (c *Core) takeSample() {
	t := c.tel
	now := c.lastCommit

	// Fold cumulative core stats into counters as deltas. ResetStats
	// (the warmup boundary) zeroes both the stats and the snapshot,
	// so windows never go negative.
	cur := c.stats()
	dBWB := cur.bwb.Delta(t.prev.bwb)
	dCyc := now - t.prevCycle
	dInsts := cur.insts - t.prev.insts
	dChecked := cur.checked - t.prev.checked
	t.insts.Add(dInsts)
	t.cycles.Add(dCyc)
	t.checked.Add(dChecked)
	t.boundsAcc.Add(cur.boundsAcc - t.prev.boundsAcc)
	t.forwards.Add(cur.forwards - t.prev.forwards)
	t.retireDelay.Add(cur.retireDelay - t.prev.retireDelay)
	t.bwbHits.Add(dBWB.Hits)
	t.bwbMisses.Add(dBWB.Misses)
	t.resizes.Add(uint64(cur.resizes - t.prev.resizes))

	// Windowed rates as gauges.
	if dCyc > 0 {
		t.ipcMilli.Set(1000 * dInsts / dCyc)
	}
	if dBWB.Lookups() > 0 {
		t.bwbHitPct.Set(100 * dBWB.Hits / dBWB.Lookups())
	} else {
		t.bwbHitPct.Set(0)
	}
	if dChecked > 0 {
		t.probeDepthM.Set(1000 * (cur.boundsAcc - t.prev.boundsAcc) / dChecked)
	} else {
		t.probeDepthM.Set(0)
	}

	// Structural occupancy at the commit frontier.
	t.mcqOcc.Set(ringOcc(c.mcqRing, now))
	t.robOcc.Set(ringOcc(c.robRing, now))
	t.lqOcc.Set(ringOcc(c.lqRing, now))
	t.sqOcc.Set(ringOcc(c.sqRing, now))
	t.dMSHROcc.Set(ringOcc(c.dMSHR, now))
	t.bMSHROcc.Set(ringOcc(c.bMSHR, now))

	t.prevCycle = now
	t.prev = cur

	t.tl.Sample(now, c.insts)
	c.nextSample = t.tl.Next()
}

// onResetStats re-bases the delta snapshots when the core's cumulative
// stats are cleared at the warmup boundary. The cycle base stays at
// the commit frontier because lastCommit is monotonic across resets.
func (t *coreTelemetry) onResetStats(lastCommit uint64) {
	t.prevCycle = lastCommit
	t.prev = coreStats{}
	t.ffStart = coreStats{}
}

// telNoteDispatch attributes a structural dispatch stall to the
// back-pressuring structure (largest release cycle wins; the MCQ —
// the AOS-specific structure — takes ties). base is the
// front-end-only dispatch cycle, dispatch the structural result.
// Called from Emit only when telemetry is attached.
func (c *Core) telNoteDispatch(in *isa.Inst, base, dispatch uint64, usesMCQ bool) {
	if dispatch <= base {
		return
	}
	stall := dispatch - base
	target := c.tel.stallROB
	best := c.robRing[c.robIdx]
	if in.Op == isa.OpLoad && c.lqRing[c.lqIdx] > best {
		best = c.lqRing[c.lqIdx]
		target = c.tel.stallLQ
	}
	if in.Op == isa.OpStore && c.sqRing[c.sqIdx] > best {
		best = c.sqRing[c.sqIdx]
		target = c.tel.stallSQ
	}
	if usesMCQ && c.mcqRing[c.mcqIdx] >= best {
		target = c.tel.stallMCQ
	}
	target.Add(stall)
}

// telNoteResize records an HBT resize episode as a duration slice:
// the migration engine walks the old table at one line per cycle
// while the program keeps running (§IV-D's gradual resize), so the
// modeled episode spans oldBytes/64 cycles from the triggering
// bounds-store's issue.
func (c *Core) telNoteResize(in *isa.Inst, issue, oldBytes uint64) {
	c.tel.tl.AddSlice("hbt_resize", issue, oldBytes/64, map[string]uint64{
		"old_assoc":     uint64(in.Assoc) / 2,
		"new_assoc":     uint64(in.Assoc),
		"moved_bytes":   oldBytes,
		"traffic_bytes": 2 * oldBytes,
	})
}
