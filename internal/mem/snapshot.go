package mem

// Snapshot/Restore support: the address space is the bulk of a machine
// checkpoint (tens of MiB for the DRAM-bound profiles), so checkpoints
// share pages with the live space instead of copying them. Snapshot and
// Restore each copy the page table's slot slice and move the space to a
// fresh generation, which leaves every page it holds shared; the copies
// happen lazily, on first write to a shared page (see wgranule), and only
// for the 512-byte granules the continuing simulation actually dirties
// and the granule indexes of their pages.

// State is a frozen view of a Memory, taken by Snapshot. It is immutable
// once created — the live space copy-on-writes away from the shared
// backing arrays — so one State can seed any number of Restores, including
// concurrently.
type State struct {
	pageTable
}

// Snapshot freezes the current contents. The live space keeps running:
// subsequent writes copy shared granules on demand, reads are untouched.
func (m *Memory) Snapshot() *State {
	s := &State{pageTable: m.pageTable}
	s.slots = append([]pageSlot(nil), m.slots...)
	m.gen = lastGen.Add(1)
	return s
}

// Restore rewinds the space to a snapshot's contents. It copies the
// snapshot's slots into the space's own slot slice, so restoring a table
// no larger than the one it replaces allocates nothing, and the restored
// space shares the snapshot's pages copy-on-write, so the snapshot remains
// valid for further Restores.
func (m *Memory) Restore(s *State) {
	slots := m.slots
	m.pageTable = s.pageTable
	m.slots = append(slots[:0], s.slots...)
	m.gen = lastGen.Add(1)
}
