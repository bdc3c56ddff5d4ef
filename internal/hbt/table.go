package hbt

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"aos/internal/mem"
	"aos/internal/pa"
)

// Geometry constants.
const (
	// WayBytes is the size of one way: a 64-byte cache line.
	WayBytes = 64
	// BoundsPerWay is the number of 8-byte compressed bounds per way.
	BoundsPerWay = WayBytes / 8
	// Rows is the number of rows: one per PAC value.
	Rows = pa.PACSpace
	// MaxAssoc bounds the gradual-resizing doubling.
	MaxAssoc = 64
)

// Table is a hashed bounds table instance at a fixed base and associativity.
// Resizing allocates a fresh Table (see Migration); a Table itself never
// moves. Its entries live only in simulated memory, which checkpoints share
// copy-on-write; an operation reads the PAC's row through one view of the
// memory granule that holds it, or a copy of a row wider than a granule
// (see row).
type Table struct {
	mem *mem.Memory
	tableState

	// wide holds the copy of the last row wider than a granule that row
	// read.
	wide []byte
}

// tableState is the table's bookkeeping, the one field list that
// checkpoints capture (see snapshot.go).
type tableState struct {
	base  uint64
	assoc int
	logA  uint // log2(assoc)
	// slots is the number of bounds entries per way: 8 with the paper's
	// 8-byte compression, 4 for the uncompressed-16-byte ablation (Fig 15).
	slots     int
	entrySize uint64

	// live counts stored entries (for tests and occupancy stats).
	live int
}

// NewTable creates a table of the given associativity (a power of two) with
// its storage at base in m, using the paper's 8-byte compressed bounds.
// The paper's initial configuration is one way (4 MB for 16-bit PACs).
func NewTable(m *mem.Memory, base uint64, assoc int) (*Table, error) {
	return NewTableEntrySize(m, base, assoc, 8)
}

// NewTableEntrySize creates a table with an explicit bounds-entry size:
// 8 bytes (compressed, the AOS default) or 16 bytes (uncompressed lower and
// upper bounds, the Fig 15 no-compression ablation — each 64-byte way then
// holds only four bounds).
func NewTableEntrySize(m *mem.Memory, base uint64, assoc int, entryBytes int) (*Table, error) {
	if assoc < 1 || assoc > MaxAssoc || assoc&(assoc-1) != 0 {
		return nil, fmt.Errorf("hbt: invalid associativity %d", assoc)
	}
	if base%mem.PageSize != 0 {
		return nil, fmt.Errorf("hbt: base %#x not page-aligned", base)
	}
	if entryBytes != 8 && entryBytes != 16 {
		return nil, fmt.Errorf("hbt: unsupported entry size %d", entryBytes)
	}
	return &Table{mem: m, tableState: tableState{
		base:      base,
		assoc:     assoc,
		logA:      uint(bits.TrailingZeros(uint(assoc))),
		slots:     WayBytes / entryBytes,
		entrySize: uint64(entryBytes),
	}}, nil
}

// SlotsPerWay returns the number of bounds entries per 64-byte way.
func (t *Table) SlotsPerWay() int { return t.slots }

// Base returns BND_BASE.
func (t *Table) Base() uint64 { return t.base }

// Assoc returns BND_ASSOC.
func (t *Table) Assoc() int { return t.assoc }

// SizeBytes returns the total table footprint.
func (t *Table) SizeBytes() uint64 { return uint64(Rows) * uint64(t.assoc) * WayBytes }

// Capacity returns the total number of bounds-entry slots
// (Rows x assoc x slots-per-way); Live()/Capacity() is the table's
// load factor, the quantity the resize policy reacts to.
func (t *Table) Capacity() uint64 { return uint64(Rows) * uint64(t.assoc) * uint64(t.slots) }

// Live returns the number of stored (nonzero) entries.
func (t *Table) Live() int { return t.live }

// RowAddr implements Eq. 1+2 for way 0: BND_BASE + (PAC << (log2A + 6)).
func (t *Table) RowAddr(pac uint16) uint64 {
	return t.base + uint64(pac)<<(t.logA+6)
}

// WayAddr implements Eq. 2: the 64-byte-aligned address of way w.
func (t *Table) WayAddr(pac uint16, w int) uint64 {
	return t.RowAddr(pac) + uint64(w)<<6
}

func (t *Table) slotAddr(pac uint16, w, slot int) uint64 {
	return t.WayAddr(pac, w) + uint64(slot)*t.entrySize
}

// row returns pac's row, read-only (nil when the row's page was never
// written, so every entry reads as zero), and the address of its first
// slot. A row lies in one page (the base is page-aligned and a row is at
// most one page). One of up to eight ways lies in one memory granule and
// is a view of it (see mem.Memory.View for the view's lifetime); a wider
// one spans several granules and is copied into t.wide, valid until the
// next call.
func (t *Table) row(pac uint16) ([]byte, uint64) {
	a := t.RowAddr(pac)
	n := uint64(t.assoc) * WayBytes
	if n <= mem.GranuleSize {
		return t.mem.View(a, n), a
	}
	if t.mem.View(a, WayBytes) == nil {
		return nil, a
	}
	if t.wide == nil {
		t.wide = make([]byte, MaxAssoc*WayBytes)
	}
	t.mem.ReadBytes(a, t.wide[:n])
	return t.wide[:n], a
}

// entry decodes the entry in slot i of a row view (way i/slots).
func (t *Table) entry(row []byte, i int) uint64 {
	if row == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(row[uint64(i)*t.entrySize:])
}

// Insert stores compressed bounds for a chunk [low, low+size) under pac.
// It scans ways in order looking for an empty (zero) slot, mirroring the
// OccChk state of the bndstr FSM. It returns the way used. If every way is
// occupied it returns ErrTableFull — the hardware raises an AOS exception
// and the OS resizes (§IV-D).
func (t *Table) Insert(pac uint16, low, size uint64) (way int, err error) {
	w, err := Compress(low, size)
	if err != nil {
		return 0, err
	}
	row, a := t.row(pac)
	for i := 0; i < t.assoc*t.slots; i++ {
		if t.entry(row, i) == 0 {
			t.mem.WriteU64(a+uint64(i)*t.entrySize, w)
			t.live++
			return i / t.slots, nil
		}
	}
	return 0, ErrTableFull
}

// ErrTableFull signals a bndstr insertion failure (row out of capacity).
var ErrTableFull = fmt.Errorf("hbt: row full; table resize required")

// Lookup finds the way whose entries cover addr for the given pac. It
// scans way by way (each way is one cache-line load; the eight bounds in a
// way are checked in parallel by the hardware). found=false after scanning
// all ways is a bounds-checking failure.
func (t *Table) Lookup(pac uint16, addr uint64) (way int, found bool) {
	return t.LookupFrom(pac, addr, 0)
}

// LookupFrom behaves like Lookup but starts the scan at a given way (the
// BWB hint path). It wraps to cover all ways.
func (t *Table) LookupFrom(pac uint16, addr uint64, start int) (way int, found bool) {
	row, _ := t.row(pac)
	if row == nil {
		return 0, false
	}
	for i := 0; i < t.assoc; i++ {
		wi := (start + i) & (t.assoc - 1)
		for s := 0; s < t.slots; s++ {
			if Covers(t.entry(row, wi*t.slots+s), addr) {
				return wi, true
			}
		}
	}
	return 0, false
}

// Clear zeroes the entry whose stored lower bound matches base (bndclr).
// found=false is a bounds-clear failure: double free or free() of an
// invalid address.
func (t *Table) Clear(pac uint16, base uint64) (way int, found bool) {
	row, a := t.row(pac)
	for i := 0; row != nil && i < t.assoc*t.slots; i++ {
		if MatchesBase(t.entry(row, i), base) {
			t.mem.WriteU64(a+uint64(i)*t.entrySize, 0)
			t.live--
			return i / t.slots, true
		}
	}
	return 0, false
}

// --- way-granular operations used by the MCQ finite state machines, which
// load one 64-byte way per state transition and examine its eight bounds in
// parallel ---

// ReadWay returns the bounds entries stored in one way.
func (t *Table) ReadWay(pac uint16, w int) []uint64 {
	out := make([]uint64, t.slots)
	for s := 0; s < t.slots; s++ {
		out[s] = t.mem.ReadU64(t.slotAddr(pac, w, s))
	}
	return out
}

// FindEmptySlot performs bndstr's occupancy check on one way: the index of
// the first zero slot.
func (t *Table) FindEmptySlot(pac uint16, w int) (slot int, ok bool) {
	for s := 0; s < t.slots; s++ {
		if t.mem.ReadU64(t.slotAddr(pac, w, s)) == 0 {
			return s, true
		}
	}
	return 0, false
}

// FindCovering performs the parallel bounds check on one way: whether any
// of the eight entries covers addr.
func (t *Table) FindCovering(pac uint16, w int, addr uint64) bool {
	for s := 0; s < t.slots; s++ {
		if Covers(t.mem.ReadU64(t.slotAddr(pac, w, s)), addr) {
			return true
		}
	}
	return false
}

// FindBase performs bndclr's occupancy check on one way: the slot whose
// stored lower bound equals base.
func (t *Table) FindBase(pac uint16, w int, base uint64) (slot int, ok bool) {
	for s := 0; s < t.slots; s++ {
		if MatchesBase(t.mem.ReadU64(t.slotAddr(pac, w, s)), base) {
			return s, true
		}
	}
	return 0, false
}

// WriteSlot stores a compressed entry (or zero, for bndclr) into one slot,
// keeping the live count consistent.
func (t *Table) WriteSlot(pac uint16, w, slot int, v uint64) {
	a := t.slotAddr(pac, w, slot)
	old := t.mem.ReadU64(a)
	if old == 0 && v != 0 {
		t.live++
	} else if old != 0 && v == 0 {
		t.live--
	}
	t.mem.WriteU64(a, v)
}

// RowOccupancy returns the number of live entries in a row.
func (t *Table) RowOccupancy(pac uint16) int {
	row, _ := t.row(pac)
	return t.occupancy(row)
}

// occupancy counts the live entries of a row read by row.
func (t *Table) occupancy(row []byte) int {
	n := 0
	for i := 0; row != nil && i < t.assoc*t.slots; i++ {
		if t.entry(row, i) != 0 {
			n++
		}
	}
	return n
}

// Migration models the non-blocking gradual resize of Fig 10: a new table
// with twice the associativity is allocated, and a micro-architectural
// table manager migrates rows from old to new while the program keeps
// running. RowPtr splits the old table into a migrated region
// (PAC < RowPtr) and a live region.
type Migration struct {
	Old, New *Table
	// RowPtr is the next old-table row to migrate; rows below it have been
	// migrated to the new table.
	RowPtr uint32
}

// StartMigration allocates the successor table (double associativity) at
// newBase and returns the in-progress migration.
func StartMigration(old *Table, newBase uint64) (*Migration, error) {
	nt, err := NewTableEntrySize(old.mem, newBase, old.assoc*2, int(old.entrySize))
	if err != nil {
		return nil, err
	}
	return &Migration{Old: old, New: nt}, nil
}

// Done reports whether every row has been migrated.
func (mi *Migration) Done() bool { return mi.RowPtr >= Rows }

// Step migrates up to n rows and returns the number of bytes copied (the
// memory traffic the migration generated).
func (mi *Migration) Step(n int) uint64 {
	if n <= 0 || mi.Done() {
		return 0
	}
	end := mi.RowPtr + uint32(n)
	if end > Rows {
		end = Rows
	}
	sz := uint64(mi.Old.assoc) * WayBytes
	// The hardware migrator reads every row in the window, so the traffic
	// charge is per row regardless of occupancy.
	traffic := uint64(end-mi.RowPtr) * 2 * sz
	// Table regions are never reused (the kernel bumps a fresh base per
	// generation), so the new rows are zeros, and an old row that holds no
	// entry — on a page never written, or all zero — needs no move. Only
	// the window's present pages are walked, in address (= PAC) order.
	for pac := mi.RowPtr; pac < end; pac++ {
		row, src := mi.Old.row(uint16(pac))
		if row == nil {
			// Skip to the last row on this absent page.
			pac += uint32((mem.PageSize-src%mem.PageSize)/sz) - 1
			continue
		}
		if moved := mi.Old.occupancy(row); moved > 0 {
			mi.Old.mem.Copy(mi.New.RowAddr(uint16(pac)), src, sz)
			mi.Old.mem.Zero(src, sz)
			mi.New.live += moved
			mi.Old.live -= moved
		}
	}
	mi.RowPtr = end
	return traffic
}

// WayAddrDuring routes an access issued during migration per Fig 10:
// accesses to out-of-way slots of the old table (w >= oldAssoc) or to the
// migrated region (PAC < RowPtr) go to the new table; everything else still
// hits the old table.
func (mi *Migration) WayAddrDuring(pac uint16, w int) uint64 {
	if w >= mi.Old.assoc || uint32(pac) < mi.RowPtr {
		return mi.New.WayAddr(pac, w)
	}
	return mi.Old.WayAddr(pac, w)
}

// TableDuring returns which table currently owns the row/way combination,
// mirroring WayAddrDuring.
func (mi *Migration) TableDuring(pac uint16, w int) *Table {
	if w >= mi.Old.assoc || uint32(pac) < mi.RowPtr {
		return mi.New
	}
	return mi.Old
}
