// Package memory implements the word-addressable transactional heap that
// the STM instruments.
//
// The paper's STM (TinySTM under the Tanger compiler) operates on raw C
// memory: every transactional load/store targets a machine word, and the
// word's address is hashed into an ownership-record table. Go cannot
// intercept raw loads and stores, so this package reproduces the object the
// STM actually manipulates: a flat arena of 64-bit words addressed by Addr
// offsets. All contention, conflict-detection and locking behaviour of the
// STM is expressed in terms of these word addresses, exactly as in the
// word-based original.
//
// The arena is divided into fixed-size blocks. Every block is owned by a
// single allocation site (see Sites); the partitioning subsystem assigns
// sites to partitions, which makes address→partition lookup a single slice
// index on the block number.
//
// Reclamation is epoch-based: transactionally freed objects are retired
// into per-thread limbo lists stamped with the freeing commit's clock
// reading (Allocator.Retire) and migrate to the real free lists only once
// the engine's published-reader horizon (internal/epoch) passes their
// stamp (Allocator.Reclaim) — so an address is never recycled while any
// live snapshot reader could still reconstruct it.
// Arena.ReclaimStats exposes the retire/reclaim/limbo word counters.
package memory

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Addr is a word index into the arena. Address 0 is reserved as the nil
// reference so that pointer-valued words can use 0 as "no object".
type Addr uint64

// Nil is the null address.
const Nil Addr = 0

// SiteID identifies an allocation site. Sites are registered once at
// program setup (they stand in for the static allocation sites a compiler
// pass would see) and every allocation names its site.
type SiteID uint32

// DefaultSite is the site used for allocations that do not name one.
const DefaultSite SiteID = 0

// Config configures an Arena.
type Config struct {
	// CapacityWords is the total number of words in the arena. The arena
	// is allocated eagerly so that the backing slice never moves while
	// concurrent transactions are indexing it. Must be at least one block.
	CapacityWords uint64
	// BlockShift is log2 of the block size in words. Blocks are the unit
	// of site (and therefore partition) ownership. Default 12 (4096 words,
	// 32 KiB per block).
	BlockShift uint
}

const defaultBlockShift = 12

// Arena is the transactional heap: a fixed slice of words plus a block
// table mapping block number to owning allocation site.
//
// The word slice is created once and never resized, so concurrent readers
// may index it without synchronization beyond the STM's own protocol.
type Arena struct {
	words      []uint64
	blockShift uint
	blockSize  uint64 // words per block
	numBlocks  uint64

	mu        sync.Mutex
	blockSite []SiteID // block -> owning site; only grows under mu, read racily after publication
	nextBlock uint64   // next unassigned block (block 0 is reserved: holds Addr 0)
	// grabHook, when set, observes every block-range assignment (under
	// mu, immediately after it happens). The durable log journals grabs
	// through it so a recovered arena never re-hands-out blocks that
	// replayed commit records have repopulated.
	grabHook func(firstBlock, blocks uint64, site SiteID)

	sites *Sites

	allocated atomic.Uint64 // words handed out (for stats)

	// Epoch-based reclamation counters (see reclaim.go): cumulative retire
	// and reclaim words; their difference is the live limbo footprint.
	retiredWords   atomic.Uint64
	reclaimedWords atomic.Uint64
}

// NewArena creates an arena with the given configuration.
func NewArena(cfg Config) (*Arena, error) {
	if cfg.BlockShift == 0 {
		cfg.BlockShift = defaultBlockShift
	}
	if cfg.BlockShift < 4 || cfg.BlockShift > 24 {
		return nil, fmt.Errorf("memory: block shift %d out of range [4,24]", cfg.BlockShift)
	}
	bs := uint64(1) << cfg.BlockShift
	if cfg.CapacityWords < 2*bs {
		return nil, fmt.Errorf("memory: capacity %d words below minimum of two blocks (%d)", cfg.CapacityWords, 2*bs)
	}
	nb := cfg.CapacityWords / bs
	a := &Arena{
		words:      make([]uint64, nb*bs),
		blockShift: cfg.BlockShift,
		blockSize:  bs,
		numBlocks:  nb,
		blockSite:  make([]SiteID, nb),
		nextBlock:  1, // block 0 reserved so that Addr 0 is never a live object
		sites:      newSites(),
	}
	return a, nil
}

// MustNewArena is NewArena that panics on configuration error; intended for
// tests and examples where the configuration is a constant.
func MustNewArena(cfg Config) *Arena {
	a, err := NewArena(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Sites returns the arena's allocation-site table.
func (a *Arena) Sites() *Sites { return a.sites }

// BlockShift returns log2 of the block size in words.
func (a *Arena) BlockShift() uint { return a.blockShift }

// NumBlocks returns the total number of blocks in the arena.
func (a *Arena) NumBlocks() uint64 { return a.numBlocks }

// BlocksInUse returns the number of blocks that have been assigned to a
// site so far (including the reserved block 0).
func (a *Arena) BlocksInUse() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.nextBlock
}

// AllocatedWords returns the cumulative number of words handed out by the
// allocator (freed words are not subtracted; free lists recycle them).
func (a *Arena) AllocatedWords() uint64 { return a.allocated.Load() }

// BlockOf returns the block number containing addr.
func (a *Arena) BlockOf(addr Addr) uint64 { return uint64(addr) >> a.blockShift }

// SiteOf returns the allocation site owning the block that contains addr.
// addr must be a live address previously returned by an allocator.
func (a *Arena) SiteOf(addr Addr) SiteID {
	return a.blockSite[uint64(addr)>>a.blockShift]
}

// Load reads the word at addr without any transactional protocol. It is
// intended for the STM core and for single-threaded inspection.
func (a *Arena) Load(addr Addr) uint64 { return a.words[addr] }

// Store writes the word at addr without any transactional protocol. It is
// intended for the STM core and for single-threaded initialization.
func (a *Arena) Store(addr Addr, v uint64) { a.words[addr] = v }

// Word returns a pointer to the word at addr for atomic access by the STM
// core.
func (a *Arena) Word(addr Addr) *uint64 { return &a.words[addr] }

// LoadAtomic reads the word at addr with atomic semantics.
func (a *Arena) LoadAtomic(addr Addr) uint64 {
	return atomic.LoadUint64(&a.words[addr])
}

// StoreAtomic writes the word at addr with atomic semantics.
func (a *Arena) StoreAtomic(addr Addr, v uint64) {
	atomic.StoreUint64(&a.words[addr], v)
}

// grabBlock assigns the next free block to site and returns its first word
// address. It is called by allocator caches when they exhaust their bump
// region.
func (a *Arena) grabBlock(site SiteID) (Addr, error) {
	return a.grabBlocks(site, 1)
}

// grabBlocks assigns k consecutive blocks to site (large objects span
// contiguous blocks so a single slice of words backs them).
func (a *Arena) grabBlocks(site SiteID, k uint64) (Addr, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.nextBlock+k > a.numBlocks {
		return Nil, fmt.Errorf("memory: arena exhausted (%d blocks of %d words, %d requested)",
			a.numBlocks, a.blockSize, k)
	}
	b := a.nextBlock
	a.nextBlock += k
	for i := uint64(0); i < k; i++ {
		a.blockSite[b+i] = site
	}
	if a.grabHook != nil {
		// Under mu, before the range is visible to the caller: the hook's
		// log sequence therefore precedes any commit record that writes
		// into these blocks.
		a.grabHook(b, k, site)
	}
	return Addr(b << a.blockShift), nil
}

// SetGrabHook installs (or with nil removes) the block-grab observer,
// called under the arena mutex right after each assignment.
func (a *Arena) SetGrabHook(fn func(firstBlock, blocks uint64, site SiteID)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.grabHook = fn
}

// ApplyGrab replays a journaled block-range assignment: blocks
// [firstBlock, firstBlock+blocks) belong to site, and the next-free
// cursor moves past them. Idempotent; used only during recovery, before
// concurrent traffic starts.
func (a *Arena) ApplyGrab(firstBlock, blocks uint64, site SiteID) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if firstBlock+blocks > a.numBlocks {
		return fmt.Errorf("memory: replayed grab [%d,%d) exceeds arena of %d blocks",
			firstBlock, firstBlock+blocks, a.numBlocks)
	}
	for i := uint64(0); i < blocks; i++ {
		a.blockSite[firstBlock+i] = site
	}
	if a.nextBlock < firstBlock+blocks {
		a.nextBlock = firstBlock + blocks
	}
	return nil
}

// SnapshotBlocks returns the next-free-block cursor and a copy of the
// block→site table up to it, taken atomically with respect to grabs.
func (a *Arena) SnapshotBlocks() (nextBlock uint64, blockSite []SiteID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	bs := make([]SiteID, a.nextBlock)
	copy(bs, a.blockSite[:a.nextBlock])
	return a.nextBlock, bs
}

// RestoreSnapshot installs a checkpoint image: heap words, the block→site
// table prefix, and the next-free cursor. It must run before any
// transactional traffic (recovery only); the arena must be at least as
// large as the image.
func (a *Arena) RestoreSnapshot(nextBlock uint64, blockSite []SiteID, words []uint64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if nextBlock > a.numBlocks {
		return fmt.Errorf("memory: checkpoint has %d blocks, arena only %d — grow CapacityWords", nextBlock, a.numBlocks)
	}
	if uint64(len(blockSite)) != nextBlock {
		return fmt.Errorf("memory: checkpoint block table has %d entries for %d blocks", len(blockSite), nextBlock)
	}
	if uint64(len(words)) != nextBlock<<a.blockShift {
		return fmt.Errorf("memory: checkpoint image has %d words for %d blocks of %d", len(words), nextBlock, a.blockSize)
	}
	copy(a.words, words)
	copy(a.blockSite, blockSite)
	if a.nextBlock < nextBlock {
		a.nextBlock = nextBlock
	}
	return nil
}

// BlockSiteTable returns the block→site table. The slice is owned by the
// arena; callers must treat it as read-only. Entries for blocks not yet
// assigned are DefaultSite. The partition registry uses this to map blocks
// to partitions.
func (a *Arena) BlockSiteTable() []SiteID { return a.blockSite }
