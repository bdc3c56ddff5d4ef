package core

import "aos/internal/telemetry"

// machineProbes is the functional machine's slice of the flight
// recorder: allocator and bounds-table state the timing core cannot
// see. Gauges are refreshed after every malloc/free (a handful of
// guarded integer stores), so the cycle-windowed sampler — driven
// from the timing core's commit path — always reads current levels.
type machineProbes struct {
	hbtAssoc    *telemetry.Gauge
	hbtLive     *telemetry.Gauge
	hbtCapacity *telemetry.Gauge
	heapLive    *telemetry.Gauge
	heapBytes   *telemetry.Gauge

	hbtInserts  *telemetry.Counter
	hbtClears   *telemetry.Counter
	hbtMigrated *telemetry.Counter
}

// AttachTelemetry registers the machine's probes in the timeline's
// registry and seeds the gauges and counters. Attach once, before
// running a workload; nil machine telemetry (the default) costs a
// single nil check at each update site.
func (m *Machine) AttachTelemetry(tl *telemetry.Timeline) {
	r := tl.Registry()
	m.tel = &machineProbes{
		hbtAssoc:    r.Gauge("hbt_assoc_ways"),
		hbtLive:     r.Gauge("hbt_live_entries"),
		hbtCapacity: r.Gauge("hbt_capacity_entries"),
		heapLive:    r.Gauge("heap_live_chunks"),
		heapBytes:   r.Gauge("heap_live_bytes"),
		hbtInserts:  r.Counter("hbt_inserts_total"),
		hbtClears:   r.Counter("hbt_clears_total"),
		hbtMigrated: r.Counter("hbt_migrated_bytes_total"),
	}
	m.telRefresh()
}

// telRefresh re-reads the gauge levels and brings each counter up to the
// machine's event total, which only a Restore moves ahead of it. Call
// sites guard on m.tel.
func (m *Machine) telRefresh() {
	t := m.OS.Table()
	m.tel.hbtAssoc.Set(uint64(t.Assoc()))
	m.tel.hbtLive.Set(uint64(t.Live()))
	m.tel.hbtCapacity.Set(t.Capacity())
	hs := m.Heap.Stats()
	m.tel.heapLive.Set(hs.Live)
	m.tel.heapBytes.Set(hs.BytesIn)
	catchUp(m.tel.hbtInserts, m.hbtInserts)
	catchUp(m.tel.hbtClears, m.hbtClears)
	catchUp(m.tel.hbtMigrated, m.hbtMigrated)
}

// catchUp advances c to total; a counter never runs backwards.
func catchUp(c *telemetry.Counter, total uint64) {
	if n := c.Load(); total > n {
		c.Add(total - n)
	}
}

// countClear counts a bndclr that found its bounds.
func (m *Machine) countClear(found bool) {
	if !found {
		return
	}
	m.hbtClears++
	if m.tel != nil {
		m.tel.hbtClears.Add(1)
	}
}
