package memory

import "fmt"

// maxSmallSize is the largest object size (in words) served from per-size
// free lists. Larger objects go through per-site large free lists keyed by
// exact size (bucket arrays, wide nodes); both classes are recycled.
const maxSmallSize = 64

// ReclaimBatch is the limbo growth (in objects) between horizon sweeps:
// the owner of an allocator should attempt a Reclaim once NeedsReclaim
// reports true, which re-arms ReclaimBatch objects past whatever the sweep
// left behind — so a stalled horizon costs one sweep per batch of retires,
// not one per commit.
const ReclaimBatch = 64

// retiredObj is one limbo entry: an object whose words may reach a free
// list only after the global horizon passes its retire stamp.
type retiredObj struct {
	addr  Addr
	n     int
	stamp uint64
}

// Allocator is a per-thread allocation cache over an Arena. Each worker
// thread owns one Allocator; free lists, bump regions and the limbo list
// are thread-local, and only grabbing a fresh block from the arena takes
// a lock. This keeps the allocator off the measured critical path the same
// way TinySTM's malloc wrappers do.
//
// Transactionally freed objects do not reach the free lists directly: the
// engine retires them into the limbo list stamped with the freeing
// commit's clock reading (Retire), and they migrate to the real free
// lists only once the published-reader horizon (internal/epoch) passes
// their stamp (Reclaim) — the epoch-based grace period that makes address
// recycling safe under concurrent snapshot reconstruction. The abort
// path's never-published objects skip limbo entirely (Free).
//
// Allocators are NOT safe for concurrent use; create one per goroutine.
type Allocator struct {
	arena  *Arena
	caches []siteCache // indexed by SiteID; grown on demand

	// limbo is the FIFO of retired-not-yet-reclaimable objects. Stamps are
	// non-decreasing (each is a commit-clock sample taken by the owning
	// thread's successive commits), so Reclaim pops a prefix. limboHead
	// avoids re-slicing the backing array on every pop; the slice compacts
	// when the dead prefix dominates.
	limbo      []retiredObj
	limboHead  int
	limboWords uint64
	// reclaimAt is the live limbo length at which NeedsReclaim next fires;
	// re-armed after every Reclaim so a stalled horizon is probed once per
	// ReclaimBatch retires instead of once per commit.
	reclaimAt int
}

type siteCache struct {
	bump Addr     // next free word in current block (0 = none)
	end  Addr     // one past the current block
	free [][]Addr // free[size] = stack of freed addresses of that size
	// large holds recycled objects of maxSmallSize words or more, keyed by
	// exact word size. Lazily allocated: most sites never free a large
	// object.
	large map[int][]Addr
}

// NewAllocator creates a thread-local allocator over arena.
func NewAllocator(arena *Arena) *Allocator {
	return &Allocator{arena: arena, reclaimAt: ReclaimBatch}
}

// Arena returns the backing arena.
func (al *Allocator) Arena() *Arena { return al.arena }

func (al *Allocator) cache(site SiteID) *siteCache {
	if int(site) >= len(al.caches) {
		grown := make([]siteCache, int(site)+1)
		copy(grown, al.caches)
		al.caches = grown
	}
	return &al.caches[site]
}

// Alloc returns the address of an object of n words owned by site. It
// returns an error only when the arena is exhausted.
//
// Recycled objects retain their previous committed contents — they are
// deliberately NOT zeroed here, because a non-transactional clear would
// break opacity for concurrent snapshot readers still holding a stale
// reference (the old contents are exactly the values their snapshot
// expects). Callers must initialize every word transactionally before
// publishing the object. Fresh bump memory is zero.
func (al *Allocator) Alloc(site SiteID, n int) (Addr, error) {
	if n <= 0 {
		return Nil, fmt.Errorf("memory: alloc of %d words", n)
	}
	c := al.cache(site)
	if n < maxSmallSize {
		if n < len(c.free) {
			if fl := c.free[n]; len(fl) > 0 {
				addr := fl[len(fl)-1]
				c.free[n] = fl[:len(fl)-1]
				return addr, nil
			}
		}
	} else if fl := c.large[n]; len(fl) > 0 {
		addr := fl[len(fl)-1]
		c.large[n] = fl[:len(fl)-1]
		return addr, nil
	}
	if uint64(n) > al.arena.blockSize {
		// Large object: spans dedicated contiguous blocks; recycled through
		// the per-site large free list above on exact-size match.
		k := (uint64(n) + al.arena.blockSize - 1) / al.arena.blockSize
		addr, err := al.arena.grabBlocks(site, k)
		if err != nil {
			return Nil, err
		}
		al.arena.allocated.Add(uint64(n))
		return addr, nil
	}
	if c.bump == Nil || uint64(c.end-c.bump) < uint64(n) {
		b, err := al.arena.grabBlock(site)
		if err != nil {
			return Nil, err
		}
		c.bump = b
		c.end = b + Addr(al.arena.blockSize)
	}
	addr := c.bump
	c.bump += Addr(n)
	al.arena.allocated.Add(uint64(n))
	return addr, nil
}

// MustAlloc is Alloc that panics on arena exhaustion; used by benchmarks
// whose arenas are sized for the workload.
func (al *Allocator) MustAlloc(site SiteID, n int) Addr {
	a, err := al.Alloc(site, n)
	if err != nil {
		panic(err)
	}
	return a
}

// Free recycles an object of n words at addr directly into this thread's
// free list for its site, with no grace period. The caller asserts that no
// live reference to addr EVER existed outside the calling thread — the
// abort path's unpublished allocations qualify; anything a commit made
// reachable does not and must go through Retire instead.
func (al *Allocator) Free(addr Addr, n int) {
	if addr == Nil || n <= 0 {
		return
	}
	al.recycle(addr, n)
}

// recycle pushes an object onto the owning site's free list (small sizes)
// or large list (maxSmallSize and up).
func (al *Allocator) recycle(addr Addr, n int) {
	site := al.arena.SiteOf(addr)
	c := al.cache(site)
	if n < maxSmallSize {
		for len(c.free) <= n {
			c.free = append(c.free, nil)
		}
		c.free[n] = append(c.free[n], addr)
		return
	}
	if c.large == nil {
		c.large = make(map[int][]Addr)
	}
	c.large[n] = append(c.large[n], addr)
}

// Retire places an object in limbo stamped with the freeing commit's
// clock reading. The object reaches a free list only when a Reclaim sees
// the global horizon pass the stamp. Stamps across successive Retire
// calls must be non-decreasing (they are: each is a clock sample from
// the owning thread's commit sequence).
func (al *Allocator) Retire(addr Addr, n int, stamp uint64) {
	if addr == Nil || n <= 0 {
		return
	}
	al.limbo = append(al.limbo, retiredObj{addr: addr, n: n, stamp: stamp})
	al.limboWords += uint64(n)
	al.arena.retiredWords.Add(uint64(n))
}

// LimboLen returns the number of objects currently in this allocator's
// limbo.
func (al *Allocator) LimboLen() int { return len(al.limbo) - al.limboHead }

// LimboWords returns the words currently held in this allocator's limbo.
func (al *Allocator) LimboWords() uint64 { return al.limboWords }

// NeedsReclaim reports whether the limbo has grown enough since the last
// Reclaim that the owner should sweep the horizon and call Reclaim.
func (al *Allocator) NeedsReclaim() bool { return al.LimboLen() >= al.reclaimAt }

// Reclaim moves every limbo object whose retire stamp the horizon has
// passed (stamp < horizon) onto the real free lists. It returns the
// number of words reclaimed and re-arms NeedsReclaim.
func (al *Allocator) Reclaim(horizon uint64) uint64 {
	var words uint64
	i := al.limboHead
	for ; i < len(al.limbo); i++ {
		r := al.limbo[i]
		if r.stamp >= horizon {
			break
		}
		al.recycle(r.addr, r.n)
		words += uint64(r.n)
	}
	al.limboHead = i
	if al.limboHead == len(al.limbo) {
		al.limbo = al.limbo[:0]
		al.limboHead = 0
	} else if al.limboHead > len(al.limbo)/2 {
		n := copy(al.limbo, al.limbo[al.limboHead:])
		al.limbo = al.limbo[:n]
		al.limboHead = 0
	}
	al.limboWords -= words
	if words > 0 {
		al.arena.reclaimedWords.Add(words)
	}
	al.reclaimAt = al.LimboLen() + ReclaimBatch
	return words
}
