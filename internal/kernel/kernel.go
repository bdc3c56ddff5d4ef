// Package kernel models the operating-system support AOS requires (§IV-D):
// creation of the per-process hashed bounds table, handling of the new AOS
// exception class (bounds-store failures trigger table resizing;
// bounds-clear and bounds-check failures are memory-safety violations
// signalled to the process), and the address-space layout of the simulated
// process.
package kernel

import (
	"fmt"

	"aos/internal/hbt"
	"aos/internal/mem"
)

// Address-space layout of the simulated process (within the 46-bit VA).
const (
	// TextBase is where synthetic instruction PCs start.
	TextBase = 0x0000_0040_0000
	// GlobalsBase is the static data segment.
	GlobalsBase = 0x0000_1000_0000
	// HeapBase is the allocator arena.
	HeapBase = 0x2000_0000_0000
	// HeapLimit is the arena size cap.
	HeapLimit = 1 << 34
	// ShadowBase is the Watchdog baseline's metadata space.
	ShadowBase = 0x2800_0000_0000
	// HBTBase is where the OS maps hashed bounds tables.
	HBTBase = 0x3000_0000_0000
	// StackTop is the (descending) stack origin.
	StackTop = 0x3FFF_FFFF_0000
)

// ExceptionKind classifies AOS exceptions (§IV-D).
type ExceptionKind int

// Exception kinds, matching the faulting instruction classes the paper
// enumerates: load/store bounds-check failures, bndclr failures (double
// free or invalid free), plus PA authentication failures for the pointer
// integrity extension. Bounds-store failures are not surfaced to the
// process: the OS handles them by resizing the table.
const (
	// ExcBoundsCheck is a load/store whose pointer has no valid bounds —
	// a spatial or temporal memory-safety violation.
	ExcBoundsCheck ExceptionKind = iota
	// ExcBoundsClear is a bndclr that found nothing to clear — double free
	// or free() of an invalid address.
	ExcBoundsClear
	// ExcPAAuth is an autm/autia authentication failure.
	ExcPAAuth
)

var kindNames = [...]string{"bounds-check failure", "bounds-clear failure", "pa-auth failure"}

// String names the kind.
func (k ExceptionKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("exception(%d)", int(k))
}

// Exception is one recorded AOS exception.
type Exception struct {
	Kind ExceptionKind
	// Addr is the faulting pointer (PAC/AHC bits included when present).
	Addr uint64
	// Detail is a human-readable diagnosis.
	Detail string
}

// Error implements error so exceptions can propagate in fail-fast mode.
func (e Exception) Error() string {
	return fmt.Sprintf("AOS exception: %s at %#x: %s", e.Kind, e.Addr, e.Detail)
}

// ResizeEvent records one HBT resize the OS performed.
type ResizeEvent struct {
	// OldAssoc and NewAssoc are the associativities before and after.
	OldAssoc, NewAssoc int
	// TrafficBytes is the migration's memory traffic (copy old into new).
	TrafficBytes uint64
}

// OS is the modeled kernel state for one process.
type OS struct {
	mem   *mem.Memory
	table *hbt.Table
	osState
}

// osState is the OS context beyond the bounds table, the one field list
// that checkpoints capture (see snapshot.go).
type osState struct {
	nextHBT    uint64
	entryBytes int

	resizes    []ResizeEvent
	exceptions []Exception
}

// NewOS creates the process context and its initial bounds table (the
// paper starts with a 1-way, 4 MB table of 8-byte compressed bounds).
func NewOS(m *mem.Memory, initialAssoc int) (*OS, error) {
	return NewOSEntrySize(m, initialAssoc, 8)
}

// NewOSEntrySize is NewOS with an explicit bounds-entry size (16 bytes for
// the Fig 15 no-compression ablation).
func NewOSEntrySize(m *mem.Memory, initialAssoc, entryBytes int) (*OS, error) {
	os := &OS{mem: m, osState: osState{nextHBT: HBTBase, entryBytes: entryBytes}}
	t, err := os.allocTable(initialAssoc)
	if err != nil {
		return nil, err
	}
	os.table = t
	return os, nil
}

func (o *OS) allocTable(assoc int) (*hbt.Table, error) {
	t, err := hbt.NewTableEntrySize(o.mem, o.nextHBT, assoc, o.entryBytes)
	if err != nil {
		return nil, err
	}
	o.nextHBT += t.SizeBytes() // whole 4 MiB units: bases stay page-aligned
	return t, nil
}

// Table returns the process's current hashed bounds table.
func (o *OS) Table() *hbt.Table { return o.table }

// Resizes returns the resize history (§IX-A.1 reports these counts). The
// slice is the OS's own log: a Restore overwrites it, so read it after the
// last restore or copy it. sampling.Run is the one caller that restores,
// and a cell reads its logs only after its last restore.
func (o *OS) Resizes() []ResizeEvent { return o.resizes }

// Exceptions returns every recorded exception. Like Resizes, the slice is
// the OS's own log, which a Restore overwrites.
func (o *OS) Exceptions() []Exception { return o.exceptions }

// ResetExceptions clears the exception log (between experiment phases).
func (o *OS) ResetExceptions() { o.exceptions = nil }

// HandleTableFull services a bndstr insertion failure: allocate a table of
// twice the associativity and migrate every row. Functionally the migration
// is atomic; the timing layer charges the recorded traffic and models the
// non-blocking row-by-row scheme of Fig 10 for address routing.
func (o *OS) HandleTableFull() (*hbt.Table, error) {
	mi, err := o.startMigration()
	if err != nil {
		return nil, err
	}
	var traffic uint64
	for !mi.Done() {
		traffic += mi.Step(4096)
	}
	o.resizes = append(o.resizes, ResizeEvent{
		OldAssoc:     mi.Old.Assoc(),
		NewAssoc:     mi.New.Assoc(),
		TrafficBytes: traffic,
	})
	o.table = mi.New
	return o.table, nil
}

func (o *OS) startMigration() (*hbt.Migration, error) {
	if o.table.Assoc()*2 > hbt.MaxAssoc {
		return nil, fmt.Errorf("kernel: HBT already at maximum associativity %d", o.table.Assoc())
	}
	base := o.nextHBT
	o.nextHBT += uint64(o.table.Assoc()*2) * uint64(hbt.Rows) * hbt.WayBytes
	return hbt.StartMigration(o.table, base)
}

// RaiseException records an AOS exception and returns it. Per §IV-D the
// process's handler chooses to terminate or to report-and-resume; callers
// model that choice by propagating or ignoring the returned exception —
// either way the violation is on record and the faulting access was
// suppressed before architectural state changed (precise exceptions).
func (o *OS) RaiseException(k ExceptionKind, addr uint64, detail string) error {
	exc := Exception{Kind: k, Addr: addr, Detail: detail}
	o.exceptions = append(o.exceptions, exc)
	return exc
}
