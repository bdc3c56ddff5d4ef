package heap

import "maps"

// State is a deep copy of the allocator's bookkeeping, taken by Snapshot.
// Chunk headers and free-list links live in simulated memory and are
// checkpointed by mem.Memory.Snapshot; this State carries the host-side
// metadata (bin heads, live-size map, stats, hardening queue) so a restored
// allocator agrees with the restored address space.
type State struct {
	allocState
}

// clone returns a copy of s that shares no storage with it.
func (s allocState) clone() allocState {
	sizes := make(map[uint64]uint64, len(s.sizes))
	maps.Copy(sizes, s.sizes)
	s.sizes = sizes
	s.accesses = append([]Access(nil), s.accesses...)
	s.quarantine = append([]uint64(nil), s.quarantine...)
	return s
}

// Snapshot deep-copies the allocator bookkeeping.
func (a *Allocator) Snapshot() *State { return &State{a.allocState.clone()} }

// Restore rewinds the allocator to a snapshot. The backing memory must be
// restored to the matching mem.State separately (core.Machine.Restore does
// both). The snapshot stays valid for further restores.
func (a *Allocator) Restore(s *State) { a.allocState = s.allocState.clone() }
