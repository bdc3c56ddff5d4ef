package hbt

// State is a copy of a Table's bookkeeping, taken by Snapshot: geometry
// and the live count. The entries themselves live only in simulated memory
// and are checkpointed, page by page and copy-on-write, by
// mem.Memory.Snapshot, so a State is the same size however full the table.
type State struct {
	tableState
}

// Snapshot copies the table bookkeeping.
func (t *Table) Snapshot() *State { return &State{t.tableState} }

// Restore rewinds the table to a snapshot. The backing memory must be
// restored to the matching mem.State separately (core.Machine.Restore does
// both). The snapshot stays valid for further restores.
func (t *Table) Restore(s *State) { t.tableState = s.tableState }
