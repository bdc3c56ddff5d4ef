package heap

// State is a deep copy of the allocator's bookkeeping, taken by Snapshot.
// Chunk headers and free-list links live in simulated memory and are
// checkpointed by mem.Memory.Snapshot; this State carries the host-side
// metadata (bin heads, live-size table, stats, hardening queue) so a
// restored allocator agrees with the restored address space.
type State struct {
	allocState
}

// Snapshot deep-copies the allocator bookkeeping.
func (a *Allocator) Snapshot() *State {
	s := a.allocState
	s.sizes = s.sizes.Clone()
	s.accesses = append([]Access(nil), s.accesses...)
	s.quarantine = append([]uint64(nil), s.quarantine...)
	return &State{s}
}

// Restore rewinds the allocator to a snapshot. The backing memory must be
// restored to the matching mem.State separately (core.Machine.Restore does
// both). The live-size table, access log and quarantine are copied into
// the allocator's own buffers, so restoring a snapshot no larger than the
// current state allocates nothing. The snapshot stays valid for further
// restores.
func (a *Allocator) Restore(s *State) {
	own := a.allocState
	a.allocState = s.allocState
	own.sizes.CopyFrom(&s.sizes)
	a.sizes = own.sizes
	a.accesses = append(own.accesses[:0], s.accesses...)
	a.quarantine = append(own.quarantine[:0], s.quarantine...)
}
