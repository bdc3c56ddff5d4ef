package core

import (
	"fmt"

	"aos/internal/heap"
	"aos/internal/instrument"
	"aos/internal/isa"
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
	scheme instrument.Scheme

	mem  *mem.State
	heap *heap.State
	os   *kernel.State

	counts   isa.Counts
	pc       uint64
	codeSize uint64
	sp       uint64
	nextReg  uint8
	lastALU  uint8
	lastLoad uint8

	wdNextKey    uint64
	wdLockCursor uint64
	wdFreeLocks  []uint64
	wdLockOf     map[uint64]uint64

	mteTags *mem.State
	mteNext uint8

	hbtInserts, hbtClears, hbtMigrated uint64
}

// Snapshot deep-copies the machine's simulated state. Any batched
// instructions are flushed to the sink first, so the checkpoint boundary is
// also a batch boundary and a later Restore resumes from a clean pipe.
func (m *Machine) Snapshot() *MachineState {
	m.Flush()
	s := &MachineState{
		scheme:       m.Scheme,
		mem:          m.Mem.Snapshot(),
		heap:         m.Heap.Snapshot(),
		os:           m.OS.Snapshot(),
		counts:       m.counts,
		pc:           m.pc,
		codeSize:     m.codeSize,
		sp:           m.sp,
		nextReg:      m.nextReg,
		lastALU:      m.lastALU,
		lastLoad:     m.lastLoad,
		wdNextKey:    m.wdNextKey,
		wdLockCursor: m.wdLockCursor,
		wdFreeLocks:  append([]uint64(nil), m.wdFreeLocks...),
		mteNext:      m.mteNext,
		hbtInserts:   m.hbtInserts,
		hbtClears:    m.hbtClears,
		hbtMigrated:  m.hbtMigrated,
	}
	if m.wdLockOf != nil {
		s.wdLockOf = make(map[uint64]uint64, len(m.wdLockOf))
		for k, v := range m.wdLockOf { //aoslint:allow mapiter — order-free: builds an independent map, no order-dependent effects
			s.wdLockOf[k] = v
		}
	}
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
	if m.Scheme != s.scheme {
		return fmt.Errorf("core: restore scheme mismatch: snapshot %v, machine %v", s.scheme, m.Scheme)
	}
	if m.batch != nil {
		m.batch = m.batch[:0]
	}
	m.Mem.Restore(s.mem)
	m.Heap.Restore(s.heap)
	m.OS.Restore(s.os)
	m.counts = s.counts
	m.pc = s.pc
	m.codeSize = s.codeSize
	m.sp = s.sp
	m.nextReg = s.nextReg
	m.lastALU = s.lastALU
	m.lastLoad = s.lastLoad
	m.wdNextKey = s.wdNextKey
	m.wdLockCursor = s.wdLockCursor
	m.wdFreeLocks = append(m.wdFreeLocks[:0:0], s.wdFreeLocks...)
	m.wdLockOf = nil
	if s.wdLockOf != nil {
		m.wdLockOf = make(map[uint64]uint64, len(s.wdLockOf))
		for k, v := range s.wdLockOf { //aoslint:allow mapiter — order-free: builds an independent map, no order-dependent effects
			m.wdLockOf[k] = v
		}
	}
	m.mteNext = s.mteNext
	if s.mteTags != nil {
		m.mteTags.Restore(s.mteTags)
	}
	m.hbtInserts, m.hbtClears, m.hbtMigrated = s.hbtInserts, s.hbtClears, s.hbtMigrated
	if m.tel != nil {
		m.telRefresh()
	}
	return nil
}
