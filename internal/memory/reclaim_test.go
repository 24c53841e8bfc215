package memory

import "testing"

func newTestAllocator(t *testing.T) *Allocator {
	t.Helper()
	a := MustNewArena(Config{CapacityWords: 1 << 16, BlockShift: 8})
	return NewAllocator(a)
}

// TestRetireHoldsUntilHorizon: a retired object must not be reused before
// the horizon passes its stamp, and must be reused after.
func TestRetireHoldsUntilHorizon(t *testing.T) {
	al := newTestAllocator(t)
	site := al.Arena().Sites().Register("s")
	addr := al.MustAlloc(site, 8)
	al.Retire(addr, 8, 10)
	if got := al.LimboLen(); got != 1 {
		t.Fatalf("limbo len = %d, want 1", got)
	}
	if got := al.LimboWords(); got != 8 {
		t.Fatalf("limbo words = %d, want 8", got)
	}
	// Horizon at the stamp: a reader published at 10 may still reach the
	// object, so it stays in limbo (reclaim condition is strict).
	if w := al.Reclaim(10); w != 0 {
		t.Fatalf("reclaim at horizon==stamp freed %d words, want 0", w)
	}
	if next := al.MustAlloc(site, 8); next == addr {
		t.Fatalf("address %d recycled while still in limbo", addr)
	}
	if w := al.Reclaim(11); w != 8 {
		t.Fatalf("reclaim past stamp freed %d words, want 8", w)
	}
	if got := al.MustAlloc(site, 8); got != addr {
		t.Fatalf("reclaimed address not recycled: got %d, want %d", got, addr)
	}
	st := al.Arena().ReclaimStats()
	if st.RetiredWords != 8 || st.ReclaimedWords != 8 || st.LimboWords != 0 {
		t.Fatalf("stats = %+v, want 8 retired, 8 reclaimed, 0 limbo", st)
	}
}

// TestReclaimPrefix: stamps are non-decreasing, so a partial horizon
// reclaims exactly the eligible prefix.
func TestReclaimPrefix(t *testing.T) {
	al := newTestAllocator(t)
	site := al.Arena().Sites().Register("s")
	var addrs []Addr
	for i := 0; i < 10; i++ {
		a := al.MustAlloc(site, 4)
		al.Retire(a, 4, uint64(i+1))
		addrs = append(addrs, a)
	}
	if w := al.Reclaim(6); w != 5*4 {
		t.Fatalf("reclaim(6) freed %d words, want %d", w, 5*4)
	}
	if got := al.LimboLen(); got != 5 {
		t.Fatalf("limbo len after partial reclaim = %d, want 5", got)
	}
	// The five reclaimed addresses come back (LIFO per free list).
	seen := map[Addr]bool{}
	for i := 0; i < 5; i++ {
		seen[al.MustAlloc(site, 4)] = true
	}
	for _, a := range addrs[:5] {
		if !seen[a] {
			t.Fatalf("address %d not recycled after reclaim", a)
		}
	}
}

// TestLargeObjectRecycling pins the large-object leak fix: sizes at or
// above maxSmallSize round-trip through Free/Retire into per-site large
// free lists and are reused on exact-size match.
func TestLargeObjectRecycling(t *testing.T) {
	al := newTestAllocator(t)
	site := al.Arena().Sites().Register("big")
	// One mid-size (between maxSmallSize and blockSize) and one
	// block-spanning object.
	for _, n := range []int{maxSmallSize, 100, 1000} {
		addr := al.MustAlloc(site, n)
		al.Retire(addr, n, 1)
		al.Reclaim(2)
		if got := al.MustAlloc(site, n); got != addr {
			t.Fatalf("large object of %d words not recycled: got %d, want %d", n, got, addr)
		}
		// A different size must not match the recycled extent.
		al.Free(addr, n) // immediate path also routes large sizes
		if got := al.MustAlloc(site, n+1); got == addr {
			t.Fatalf("size-%d request served from size-%d extent", n+1, n)
		}
		if got := al.MustAlloc(site, n); got != addr {
			t.Fatalf("Free'd large object of %d words not recycled", n)
		}
	}
}

// TestNeedsReclaimArming: NeedsReclaim fires once per ReclaimBatch of
// growth, and a fruitless reclaim (stalled horizon) re-arms rather than
// firing on every subsequent retire.
func TestNeedsReclaimArming(t *testing.T) {
	al := newTestAllocator(t)
	site := al.Arena().Sites().Register("s")
	for i := 0; i < ReclaimBatch-1; i++ {
		al.Retire(al.MustAlloc(site, 1), 1, 1)
	}
	if al.NeedsReclaim() {
		t.Fatalf("NeedsReclaim before %d retires", ReclaimBatch)
	}
	al.Retire(al.MustAlloc(site, 1), 1, 1)
	if !al.NeedsReclaim() {
		t.Fatalf("NeedsReclaim not set at %d retires", ReclaimBatch)
	}
	// Stalled horizon: nothing reclaimable, threshold moves out.
	if w := al.Reclaim(1); w != 0 {
		t.Fatalf("stalled reclaim freed %d words", w)
	}
	if al.NeedsReclaim() {
		t.Fatalf("NeedsReclaim still set right after a fruitless reclaim")
	}
}
