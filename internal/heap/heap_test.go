package heap

import (
	"errors"
	"math/rand"
	"testing"

	"aos/internal/mem"
)

const testBase = 0x2000_0000_0000

func newTestAllocator(t testing.TB) (*Allocator, *mem.Memory) {
	t.Helper()
	m := mem.New()
	return New(m, testBase, 1<<30), m
}

func TestMallocAlignmentAndUniqueness(t *testing.T) {
	a, _ := newTestAllocator(t)
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		size := uint64(1 + i%512)
		p, err := a.Malloc(size)
		if err != nil {
			t.Fatalf("Malloc(%d): %v", size, err)
		}
		if p%Align != 0 {
			t.Fatalf("Malloc(%d) returned unaligned %#x", size, p)
		}
		if seen[p] {
			t.Fatalf("Malloc returned duplicate live pointer %#x", p)
		}
		seen[p] = true
	}
}

func TestMallocUsableSize(t *testing.T) {
	a, _ := newTestAllocator(t)
	for _, size := range []uint64{1, 15, 16, 17, 64, 100, 4096, 1 << 20} {
		p, err := a.Malloc(size)
		if err != nil {
			t.Fatalf("Malloc(%d): %v", size, err)
		}
		if got := a.UsableSize(p); got < size {
			t.Errorf("UsableSize(%d-byte alloc) = %d, want >= %d", size, got, size)
		}
	}
}

func TestMallocZeroAndHuge(t *testing.T) {
	a, _ := newTestAllocator(t)
	p, err := a.Malloc(0)
	if err != nil || p == 0 {
		t.Errorf("Malloc(0) = %#x, %v; want a valid minimal allocation", p, err)
	}
	if _, err := a.Malloc(1 << 33); !errors.Is(err, ErrSizeTooLarge) {
		t.Errorf("Malloc(2^33) err = %v, want ErrSizeTooLarge", err)
	}
}

func TestFreeNullIsNoop(t *testing.T) {
	a, _ := newTestAllocator(t)
	if err := a.Free(0); err != nil {
		t.Errorf("Free(0) = %v, want nil", err)
	}
}

func TestAllocationsDoNotOverlap(t *testing.T) {
	a, _ := newTestAllocator(t)
	type span struct{ lo, hi uint64 }
	var spans []span
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		size := uint64(1 + rng.Intn(2000))
		p, err := a.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		us := a.UsableSize(p)
		for _, s := range spans {
			if p < s.hi && s.lo < p+us {
				t.Fatalf("allocation [%#x,%#x) overlaps live [%#x,%#x)", p, p+us, s.lo, s.hi)
			}
		}
		spans = append(spans, span{p, p + us})
	}
}

func TestFreeAndReuse(t *testing.T) {
	a, _ := newTestAllocator(t)
	p, err := a.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); err != nil {
		t.Fatalf("Free: %v", err)
	}
	q, err := a.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Errorf("tcache LIFO reuse: got %#x, want %#x", q, p)
	}
}

func TestTcacheCapThenFastbin(t *testing.T) {
	a, _ := newTestAllocator(t)
	var ptrs []uint64
	for i := 0; i < TcacheCap+3; i++ {
		p, err := a.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		if err := a.Free(p); err != nil {
			t.Fatalf("Free(%#x): %v", p, err)
		}
	}
	// All of them must be reusable.
	got := make(map[uint64]bool)
	for range ptrs {
		p, err := a.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		got[p] = true
	}
	for _, p := range ptrs {
		if !got[p] {
			t.Errorf("freed pointer %#x was never reused", p)
		}
	}
}

func TestTcacheDoubleFreeDetected(t *testing.T) {
	a, _ := newTestAllocator(t)
	p, _ := a.Malloc(64)
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); !errors.Is(err, ErrDoubleFree) {
		t.Errorf("second Free = %v, want ErrDoubleFree", err)
	}
}

func TestFastbinDoubleFreeDetected(t *testing.T) {
	a, _ := newTestAllocator(t)
	// Fill the tcache class first so frees land in the fastbin.
	var fill []uint64
	for i := 0; i < TcacheCap; i++ {
		p, _ := a.Malloc(32)
		fill = append(fill, p)
	}
	p, _ := a.Malloc(32)
	for _, f := range fill {
		if err := a.Free(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p); !errors.Is(err, ErrDoubleFree) {
		t.Errorf("fastbin double free = %v, want ErrDoubleFree", err)
	}
}

func TestInvalidFrees(t *testing.T) {
	a, _ := newTestAllocator(t)
	p, _ := a.Malloc(64)
	if err := a.Free(p + 8); err == nil {
		t.Error("Free(misaligned) succeeded, want error")
	}
	if err := a.Free(p + 16); err == nil {
		t.Error("Free(interior aligned pointer with garbage header) succeeded, want error")
	}
}

func TestCoalescing(t *testing.T) {
	a, _ := newTestAllocator(t)
	// Three adjacent large chunks (too big for tcache/fastbin).
	p1, _ := a.Malloc(2048)
	p2, _ := a.Malloc(2048)
	p3, _ := a.Malloc(2048)
	_ = p3
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p2); err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("after coalescing frees: %v", err)
	}
	// A request for the combined size must fit in the coalesced block.
	p4, err := a.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if p4 != p1 {
		t.Errorf("coalesced block not reused: got %#x, want %#x", p4, p1)
	}
}

func TestRealloc(t *testing.T) {
	a, m := newTestAllocator(t)
	p, _ := a.Malloc(64)
	m.WriteU64(p, 0x1122334455667788)
	m.WriteU64(p+56, 0x99AABBCCDDEEFF00)

	q, err := a.Realloc(p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if m.ReadU64(q) != 0x1122334455667788 || m.ReadU64(q+56) != 0x99AABBCCDDEEFF00 {
		t.Error("Realloc did not preserve contents")
	}
	// Shrink in place.
	r, err := a.Realloc(q, 16)
	if err != nil {
		t.Fatal(err)
	}
	if r != q {
		t.Errorf("shrink moved the block: %#x -> %#x", q, r)
	}
	// Realloc to zero frees.
	z, err := a.Realloc(r, 0)
	if err != nil || z != 0 {
		t.Errorf("Realloc(p,0) = %#x, %v; want 0, nil", z, err)
	}
	// Realloc of nil allocates.
	w, err := a.Realloc(0, 64)
	if err != nil || w == 0 {
		t.Errorf("Realloc(0,64) = %#x, %v", w, err)
	}
}

func TestStatsTracking(t *testing.T) {
	a, _ := newTestAllocator(t)
	var ptrs []uint64
	for i := 0; i < 10; i++ {
		p, _ := a.Malloc(100)
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs[:4] {
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	s := a.Stats()
	if s.Allocs != 10 || s.Frees != 4 || s.Live != 6 || s.MaxLive != 10 {
		t.Errorf("stats = %+v, want allocs=10 frees=4 live=6 maxlive=10", s)
	}
}

func TestMetadataAccessesRecorded(t *testing.T) {
	a, _ := newTestAllocator(t)
	a.DrainAccesses()
	p, _ := a.Malloc(64)
	if len(a.DrainAccesses()) == 0 {
		t.Error("Malloc recorded no metadata accesses")
	}
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
	if len(a.DrainAccesses()) == 0 {
		t.Error("Free recorded no metadata accesses")
	}
}

func TestOutOfMemory(t *testing.T) {
	m := mem.New()
	a := New(m, testBase, 1<<17)
	var err error
	for i := 0; i < 100 && err == nil; i++ {
		_, err = a.Malloc(4096)
	}
	if !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("exhaustion err = %v, want ErrOutOfMemory", err)
	}
}

// TestHouseOfSpirit reproduces the paper's Fig 1: a crafted fake chunk
// outside the heap passes glibc's free() integrity tests, enters a bin, and
// the next malloc of the right size returns attacker-controlled memory.
// (AOS blocks this before free() via bndclr; the allocator itself must be
// vulnerable for the example to be meaningful.)
func TestHouseOfSpirit(t *testing.T) {
	a, m := newTestAllocator(t)
	// Craft two fake chunks in "global" memory at an arbitrary address.
	fake := uint64(0x1000_0000)
	const fakeSize = 0x40
	m.WriteU64(fake+8, fakeSize)          // fchunk[0].size
	m.WriteU64(fake+fakeSize+8, fakeSize) // fchunk[1].size: passes next-size test

	ptr := fake + HeaderSize // &fchunk[0].fd
	if err := a.Free(ptr); err != nil {
		t.Fatalf("free of crafted chunk was rejected (%v); glibc accepts it", err)
	}
	victim, err := a.Malloc(0x30)
	if err != nil {
		t.Fatal(err)
	}
	if victim != ptr {
		t.Errorf("malloc after crafted free returned %#x, want attacker-controlled %#x", victim, ptr)
	}
}

func TestValidateRandomWorkload(t *testing.T) {
	a, _ := newTestAllocator(t)
	rng := rand.New(rand.NewSource(42))
	live := make([]uint64, 0, 512)
	for i := 0; i < 5000; i++ {
		if len(live) > 0 && rng.Intn(100) < 45 {
			j := rng.Intn(len(live))
			if err := a.Free(live[j]); err != nil {
				t.Fatalf("op %d: Free: %v", i, err)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			size := uint64(1 + rng.Intn(3000))
			p, err := a.Malloc(size)
			if err != nil {
				t.Fatalf("op %d: Malloc(%d): %v", i, size, err)
			}
			live = append(live, p)
		}
		if i%500 == 0 {
			if err := a.Validate(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDataSurvivesOtherOperations(t *testing.T) {
	a, m := newTestAllocator(t)
	p, _ := a.Malloc(128)
	for i := uint64(0); i < 16; i++ {
		m.WriteU64(p+i*8, 0xA0+i)
	}
	// Allocate and free around it.
	var others []uint64
	for i := 0; i < 100; i++ {
		q, _ := a.Malloc(uint64(16 + i*8))
		others = append(others, q)
	}
	for _, q := range others {
		if err := a.Free(q); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 16; i++ {
		if got := m.ReadU64(p + i*8); got != 0xA0+i {
			t.Fatalf("payload corrupted at word %d: %#x", i, got)
		}
	}
}

func BenchmarkMallocFree(b *testing.B) {
	a, _ := newTestAllocator(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := a.Malloc(uint64(16 + i%256))
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Free(p); err != nil {
			b.Fatal(err)
		}
	}
}
