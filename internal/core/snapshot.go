package core

import (
	"fmt"

	"aos/internal/heap"
	"aos/internal/kernel"
	"aos/internal/mem"
)

// MachineState is a deep, self-contained checkpoint of a Machine's
// simulated state: the address space, allocator, OS/bounds-table context,
// and all instrumentation bookkeeping. Runtime wiring — the sink, the
// batching buffer, telemetry probes, and the stateless PA unit — is NOT
// captured; Restore keeps the target machine's wiring, so a restored
// machine keeps feeding whatever pipeline it was attached to.
type MachineState struct {
	machineState
	mem     *mem.State
	heap    *heap.State
	os      *kernel.State
	mteTags *mem.State // nil unless the scheme tags memory
}

// Snapshot deep-copies the machine's simulated state. Any batched
// instructions are flushed to the sink first, so the checkpoint boundary is
// also a batch boundary and a later Restore resumes from a clean pipe.
func (m *Machine) Snapshot() *MachineState {
	m.Flush()
	s := &MachineState{
		machineState: m.machineState,
		mem:          m.Mem.Snapshot(),
		heap:         m.Heap.Snapshot(),
		os:           m.OS.Snapshot(),
	}
	s.wdFreeLocks = append([]uint64(nil), s.wdFreeLocks...)
	s.wdLockOf = s.wdLockOf.Clone()
	if m.mteTags != nil {
		s.mteTags = m.mteTags.Snapshot()
	}
	return s
}

// Restore rewinds the machine's simulated state to a snapshot taken from a
// machine with the same configuration, keeping the target's runtime wiring
// (sink, batching, telemetry, PA unit); attached telemetry probes then
// read the restored state. Any batched instructions on the target are
// discarded — they belong to the timeline being abandoned. The snapshot
// stays valid for further Restores, including concurrent ones on
// different machines.
func (m *Machine) Restore(s *MachineState) error {
	if m.Scheme != s.Scheme {
		return fmt.Errorf("core: restore scheme mismatch: snapshot %v, machine %v", s.Scheme, m.Scheme)
	}
	if m.batch != nil {
		m.batch = m.batch[:0]
	}
	m.Mem.Restore(s.mem)
	m.Heap.Restore(s.heap)
	m.OS.Restore(s.os)
	own := m.machineState
	m.machineState = s.machineState
	m.wdFreeLocks = append(own.wdFreeLocks[:0], s.wdFreeLocks...)
	own.wdLockOf.CopyFrom(&s.wdLockOf)
	m.wdLockOf = own.wdLockOf
	if s.mteTags != nil {
		m.mteTags.Restore(s.mteTags)
	}
	if m.tel != nil {
		m.telRefresh()
	}
	return nil
}
