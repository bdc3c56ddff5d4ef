package hbt

// State is a copy of a Table's bookkeeping, taken by Snapshot: geometry
// and the live count. The entries themselves live only in simulated memory
// and are checkpointed, page by page and copy-on-write, by
// mem.Memory.Snapshot, so a State is the same size however full the table.
type State struct {
	base      uint64
	assoc     int
	logA      uint
	slots     int
	entrySize uint64
	live      int
}

// Snapshot copies the table bookkeeping.
func (t *Table) Snapshot() *State {
	return &State{
		base:      t.base,
		assoc:     t.assoc,
		logA:      t.logA,
		slots:     t.slots,
		entrySize: t.entrySize,
		live:      t.live,
	}
}

// Restore rewinds the table to a snapshot. The backing memory must be
// restored to the matching mem.State separately (core.Machine.Restore does
// both). The snapshot stays valid for further restores.
func (t *Table) Restore(s *State) {
	t.base = s.base
	t.assoc = s.assoc
	t.logA = s.logA
	t.slots = s.slots
	t.entrySize = s.entrySize
	t.live = s.live
}
