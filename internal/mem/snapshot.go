package mem

// Snapshot/Restore support: the address space is the bulk of a machine
// checkpoint (tens of MiB for the DRAM-bound profiles), so checkpoints
// share page backing arrays with the live space instead of copying them.
// Snapshot is O(touched pages) map work; the per-page byte copies happen
// lazily, on first write to a shared page (see wpage), and only for the
// pages the continuing simulation actually dirties.

// State is a frozen view of a Memory, taken by Snapshot. It is immutable
// once created — the live space copy-on-writes away from the shared
// backing arrays — so one State can seed any number of Restores, including
// concurrently.
type State struct {
	pages        map[uint64]*[PageSize]byte
	pagesTouched uint64
}

// Snapshot freezes the current contents. The live space keeps running:
// subsequent writes copy shared pages on demand, reads are untouched.
func (m *Memory) Snapshot() *State {
	pages := make(map[uint64]*[PageSize]byte, len(m.pages))
	if m.shared == nil {
		m.shared = make(map[uint64]struct{}, len(m.pages))
	}
	for pn, p := range m.pages { //aoslint:allow mapiter — order-free: builds a map and a set, no order-dependent effects
		pages[pn] = p
		m.shared[pn] = struct{}{}
	}
	return &State{pages: pages, pagesTouched: m.pagesTouched}
}

// Restore rewinds the space to a snapshot's contents. The restored space
// shares the snapshot's backing arrays copy-on-write, so restoring is
// O(touched pages) regardless of footprint and the snapshot remains valid
// for further Restores.
func (m *Memory) Restore(s *State) {
	m.pages = make(map[uint64]*[PageSize]byte, len(s.pages))
	m.shared = make(map[uint64]struct{}, len(s.pages))
	for pn, p := range s.pages { //aoslint:allow mapiter — order-free: builds a map and a set, no order-dependent effects
		m.pages[pn] = p
		m.shared[pn] = struct{}{}
	}
	m.pagesTouched = s.pagesTouched
}
