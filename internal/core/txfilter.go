package core

// txFilter is a bloom-style first-touch filter placed in front of the
// transaction's set-membership lookups (rsFind/wsFind). The overwhelmingly
// common membership query in a large scan is the first touch of an orec or
// address — a lookup that will NOT find anything — and the filter answers
// exactly that case without probing: a clear bit proves the key was never
// added, so the caller skips the find entirely and goes straight to
// append. A set bit proves nothing (false positives are expected and
// harmless); the caller must still confirm through the exact lookup
// before deduplicating.
//
// False negatives, by contrast, would be unsound — the write-set filter
// guards read-after-write, where "definitely not present" is trusted to
// read memory instead of the buffer — so every key ever added to the set
// must be added to the filter, and growth rehashes every key.
//
// Shape: one 64-bit word while the set is small (it rides in the Tx
// struct, zeroed per attempt for free), switching to a growable bitset
// once the entries outgrow the word. The bitset quadruples whenever fill
// exceeds 1/8 — keeping the false-positive rate (≈ fill for a one-hash
// bloom) near 12% — and its backing array is retained across attempts.
//
// The grown bitset is generation-stamped, exactly as txIndex stamps its
// slots: every bitset word carries the generation that last wrote it, a
// word whose stamp is stale reads as all-clear, and reset simply bumps
// the generation — O(1), never an O(words) clear. This is what lets a
// huge transaction (one whose filter grew to cover a large scan) retry
// without re-paying a full-bitset memset per attempt: the backing arrays
// are reused as-is, stale bits from the previous attempt are invisible
// behind their stamps, and only words actually touched by the new
// attempt are lazily cleared on first write.
type txFilter struct {
	word  uint64   // the small filter (used until grown is set)
	bits  []uint64 // growable bitset; len tracks the current size
	gens  []uint64 // per-word generation stamps (parallel to bits)
	gen   uint64   // current generation; a bits word is live iff stamps match
	mask  uint64   // current bitset size in bits - 1 (power of two)
	n     int      // keys added since reset
	grown bool
	// set is setBit bound once: growth hands it to the caller's key
	// enumerator, and binding it afresh there would allocate per growth.
	set func(uint64)
}

// filterGrowBits is the bitset size installed at the first growth; with
// growth triggered past the small-set thresholds (≤16 keys) the initial
// fill starts around 1/64.
const filterGrowBits = 1024

// reset invalidates the filter in O(1): the small word is re-zeroed
// inline and the grown bitset — if any backing array is retained — is
// invalidated wholesale by bumping the generation.
func (f *txFilter) reset() {
	f.word, f.n, f.grown = 0, 0, false
	f.gen++
}

// bitPos mixes a key into a bit index for the grown bitset. The word
// filter uses the top 6 bits of the same product; the two need not agree
// because growth rehashes everything.
func bitPos(k, mask uint64) uint64 { return ((k * hashMul) >> 32) & mask }

// mayContain reports whether k might have been added since the last
// reset. False positives possible; false negatives impossible (a stale
// generation stamp proves the word was never written this attempt, i.e.
// every one of its bits is clear).
func (f *txFilter) mayContain(k uint64) bool {
	if !f.grown {
		return f.word&(1<<((k*hashMul)>>58)) != 0
	}
	p := bitPos(k, f.mask)
	w := p >> 6
	return f.gens[w] == f.gen && f.bits[w]&(1<<(p&63)) != 0
}

// add records k. smallMax is the caller's small-set threshold: the word
// filter serves up to that many keys (matching the inline-scan regime of
// the guarded set), then the filter grows into the bitset. keys must
// enumerate every key added since reset — growth rehashes through it.
func (f *txFilter) add(k uint64, smallMax int, keys func(yield func(uint64))) {
	f.n++
	if !f.grown {
		if f.n <= smallMax {
			f.word |= 1 << ((k * hashMul) >> 58)
			return
		}
		f.growTo(filterGrowBits)
		keys(f.set)
		return
	}
	if uint64(f.n) > (f.mask+1)>>3 {
		f.growTo((f.mask + 1) << 2)
		keys(f.set)
		return
	}
	f.setBit(k)
}

func (f *txFilter) setBit(k uint64) {
	p := bitPos(k, f.mask)
	w := p >> 6
	if f.gens[w] != f.gen {
		// First write to this word in the current generation: whatever it
		// holds is stale — clear lazily, one word, exactly when touched.
		f.bits[w] = 0
		f.gens[w] = f.gen
	}
	f.bits[w] |= 1 << (p & 63)
}

// growTo installs a bitset of nbits (a power of two), reusing the backing
// arrays when they are large enough. No clearing happens in either case:
// a fresh generation makes every retained word stale, and fresh arrays
// carry stamp 0, which the generation floor below keeps unreachable.
func (f *txFilter) growTo(nbits uint64) {
	words := int(nbits >> 6)
	if cap(f.bits) < words {
		f.bits = make([]uint64, words)
		f.gens = make([]uint64, words)
	} else {
		f.bits = f.bits[:words]
		f.gens = f.gens[:words]
	}
	// A new geometry (or a reused array) must not see bits set under the
	// old mask as live: advance the generation so every word is stale, and
	// keep it at least 1 so the zero stamps of fresh arrays never match.
	f.gen++
	if f.gen == 0 {
		f.gen = 1
	}
	f.mask = nbits - 1
	f.grown = true
	if f.set == nil {
		f.set = f.setBit
	}
}
