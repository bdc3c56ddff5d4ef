package cpu

import (
	"slices"
	"testing"
)

// mapSched is the pre-ring reference implementation of the port reservation
// scheme: a bare map of per-cycle counts plus a floor, exactly as the timing
// core used before the ring scheduler replaced it. The ring must be
// observably indistinguishable from it.
type mapSched struct {
	used  map[uint64]int
	floor uint64
	width int
}

func (m *mapSched) reserve(at uint64) uint64 {
	if at < m.floor {
		at = m.floor
	}
	for m.used[at] >= m.width {
		at++
	}
	m.used[at]++
	return at
}

func (m *mapSched) advance(newFloor uint64) {
	if newFloor <= m.floor {
		return
	}
	for k := range m.used {
		if k < newFloor {
			delete(m.used, k)
		}
	}
	m.floor = newFloor
}

// TestPortSchedMatchesMapModel drives the ring scheduler and the old map
// scheme with an identical reservation stream — including bursts that
// overflow the ring window and periodic floor advances mid-burst — and
// demands grant-for-grant equality.
func TestPortSchedMatchesMapModel(t *testing.T) {
	for _, width := range []int{1, 2, 3} {
		s := newPortSched(width)
		ref := &mapSched{used: map[uint64]int{}, width: width}
		rng := uint64(0x9E3779B97F4A7C15)
		next := func(mod uint64) uint64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return (rng >> 33) % mod
		}
		cur := uint64(0)
		for i := 0; i < 300_000; i++ {
			cur += next(48)
			at := cur
			switch next(16) {
			case 0:
				// Far-future reservation: lands beyond the ring window and
				// must spill to the overflow map.
				at += portWindow + next(portWindow)
			case 1:
				// Below-floor request: exercises the clamp.
				at = cur / 2
			}
			got, want := s.reserve(at), ref.reserve(at)
			if got != want {
				t.Fatalf("width %d, step %d: reserve(%d) = %d, map model says %d",
					width, i, at, got, want)
			}
			if i%4096 == 0 {
				floor := uint64(0)
				if cur > 2048 {
					floor = cur - 2048
				}
				s.advance(floor)
				ref.advance(floor)
			}
		}
	}
}

// TestPortSchedAdvanceBeyondWindow covers the whole-ring reset path: a jump
// of more than the window must clear every slot and re-anchor the base.
func TestPortSchedAdvanceBeyondWindow(t *testing.T) {
	s := newPortSched(1)
	for i := uint64(0); i < 10; i++ {
		s.reserve(i)
	}
	far := uint64(5 * portWindow)
	s.advance(far)
	// Every cycle below the new base must be clamped up, and the window
	// must be empty: consecutive reservations get consecutive cycles.
	for i := uint64(0); i < 10; i++ {
		if got := s.reserve(100); got != far+i {
			t.Fatalf("after advance(%d): reservation %d granted %d, want %d", far, i, got, far+i)
		}
	}
}

// TestPortSchedCloneRestore: a scheduler restored from a saved copy holds
// the original's ring and grants the same cycles as the original
// continuing, whatever it held before, and shares no storage with the
// saved copy, the overflow spill included. The saved span wraps the ring
// in the second case.
func TestPortSchedCloneRestore(t *testing.T) {
	for _, base := range []uint64{100, 3*portWindow - 40} {
		s := newPortSched(1)
		for i := uint64(0); i < 64; i++ {
			s.reserve(i * 7)
			s.reserve(portWindow + i*3) // beyond the window: spills
		}
		s.advance(base)
		for i := uint64(0); i < 64; i++ {
			s.reserve(base + i*3)
		}
		if len(s.overflow) == 0 && base == 100 {
			t.Fatal("test is vacuous: nothing spilled to the overflow map")
		}
		snap := s.save()
		atSave := slices.Clone(s.ring)
		span := 0 // cycles from base through the last one reserved
		for c := s.base; c < s.base+portWindow; c++ {
			if s.ring[c&s.mask] != 0 {
				span = int(c-s.base) + 1
			}
		}
		if len(snap.ring) != span {
			t.Fatalf("base %d: saved %d ring slots, want the %d of the reserved span", base, len(snap.ring), span)
		}
		grants := func(p *portSched) []uint64 {
			var out []uint64
			for i := uint64(0); i < 64; i++ {
				out = append(out, p.reserve(base+i*5), p.reserve(base+portWindow+i*2))
			}
			return out
		}
		want := grants(&s)
		r := newPortSched(1)
		for trial := 0; trial < 2; trial++ {
			// The second trial restores over the first one's reservations.
			r.restore(&snap)
			if !slices.Equal(r.ring, atSave) {
				t.Fatalf("base %d trial %d: restored ring differs from the original's at the save", base, trial)
			}
			if got := grants(&r); !slices.Equal(got, want) {
				t.Fatalf("base %d trial %d: restored scheduler granted %v, want %v", base, trial, got, want)
			}
		}
	}
}

func TestPortSchedWidthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("newPortSched(0) did not panic")
		}
	}()
	newPortSched(0)
}
