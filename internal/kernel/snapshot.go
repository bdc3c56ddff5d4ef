package kernel

import "aos/internal/hbt"

// State is a deep copy of the OS context, taken by Snapshot: table
// placement bookkeeping, the resize/exception logs, and the bounds table's
// own state. The table's architectural storage lives in simulated memory
// and is checkpointed by mem.Memory.Snapshot.
type State struct {
	osState
	table *hbt.State
}

// clone returns a copy of s that shares no storage with it.
func (s osState) clone() osState {
	s.resizes = append([]ResizeEvent(nil), s.resizes...)
	s.exceptions = append([]Exception(nil), s.exceptions...)
	return s
}

// Snapshot deep-copies the OS context.
func (o *OS) Snapshot() *State {
	return &State{osState: o.osState.clone(), table: o.table.Snapshot()}
}

// Restore rewinds the OS context to a snapshot. The backing memory must be
// restored to the matching mem.State separately (core.Machine.Restore does
// both). The existing table object is restored in place, so pointers to it
// held by callers stay valid. The logs are copied into the OS's own
// slices, so a restore over logs that can hold the snapshot's allocates
// nothing, and it overwrites what Resizes and Exceptions returned before
// it. The snapshot stays valid for further restores.
func (o *OS) Restore(s *State) {
	own := o.osState
	o.osState = s.osState
	o.resizes = append(own.resizes[:0], s.resizes...)
	o.exceptions = append(own.exceptions[:0], s.exceptions...)
	o.table.Restore(s.table)
}
