package main

// The benchmark's own input generator: a seeded RNG and the three op
// streams the workloads replay. Streams are generated up front, so the
// program under test only ever receives finished inputs, and each stream
// is hashed so two runs can prove they drove the same ops
// (client.stream_hash).

// rng is xorshift64* seeded through splitmix64 (so seeds 1 and 2 start
// far apart).
type rng struct{ s uint64 }

func newRng(seed uint64) *rng {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return &rng{s: z}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// intn returns a uniform value in [0, n) for 0 < n < 1<<32.
func (r *rng) intn(n int) int {
	return int((r.next() >> 32) * uint64(n) >> 32)
}

// chance reports true with probability p.
func (r *rng) chance(p float64) bool {
	return float64(r.next()>>11)/(1<<53) < p
}

// streamHash is FNV-1a over the 64-bit fields of an op stream.
type streamHash uint64

func newStreamHash() streamHash { return 14695981039346656037 }

func (h *streamHash) add(v uint64) {
	for i := 0; i < 8; i++ {
		*h = (*h ^ streamHash(v&0xff)) * 1099511628211
		v >>= 8
	}
}

// metric renders the hash as a number a float64 carries exactly.
func (h streamHash) metric() float64 { return float64(uint64(h) & (1<<48 - 1)) }

// kvOp is one request of the kv workloads: an n-key GET batch (n ==
// kvGetKeys) or a two-key transfer moving delta from keys[0] to keys[1].
type kvOp struct {
	keys  [kvGetKeys]uint32
	n     uint8
	delta uint32
}

const kvGetKeys = 8

func (o *kvOp) isGet() bool { return o.n == kvGetKeys }

// genKV generates count requests over nkeys uniform keys; readShare of
// them are GET batches, the rest transfers between two distinct keys.
func genKV(seed uint64, count, nkeys int, readShare float64) ([]kvOp, streamHash) {
	r := newRng(seed)
	h := newStreamHash()
	ops := make([]kvOp, count)
	for i := range ops {
		o := &ops[i]
		if r.chance(readShare) {
			o.n = kvGetKeys
			for j := range o.keys {
				o.keys[j] = uint32(r.intn(nkeys))
			}
		} else {
			o.n = 2
			o.keys[0] = uint32(r.intn(nkeys))
			o.keys[1] = uint32(r.intn(nkeys - 1))
			if o.keys[1] >= o.keys[0] {
				o.keys[1]++
			}
			o.delta = uint32(r.intn(100) + 1)
		}
		h.add(uint64(o.n))
		h.add(uint64(o.delta))
		for _, k := range o.keys {
			h.add(uint64(k))
		}
	}
	return ops, h
}

// Targets of a multiset op: the four integer sets, then the ledger.
const (
	msList = iota
	msSkip
	msTree
	msHash
	msLedger
	msTargets
)

var msNames = [msTargets]string{"list", "skiplist", "rbtree", "hashset", "ledger"}

// The paper's Fig. 2 sizing: key range and update share per set, plus
// the ledger with its share of long rebalance transactions.
var msSpecs = [msLedger]struct {
	keyRange    int
	updateShare float64
}{
	msList: {256, 0.50},
	msSkip: {4096, 0.20},
	msTree: {16384, 0.02},
	msHash: {16384, 0.50},
}

const (
	msHashBuckets    = 2048
	msLedgerSlots    = 1024
	msLedgerInit     = 100
	msRebalanceShare = 0.10
)

type msKind uint8

const (
	msLookup msKind = iota
	msInsert
	msRemove
	msTransfer  // ledger: move 1 from slot a to slot b
	msRebalance // ledger: scan all slots, move 1 from the fullest to a
)

// msOp is one multiset transaction.
type msOp struct {
	target uint8
	kind   msKind
	a, b   uint32
}

// genMultiset generates count ops, each on a structure picked uniformly.
// scale divides the key ranges (smoke runs use smaller structures).
func genMultiset(seed uint64, count, scale int) ([]msOp, streamHash) {
	r := newRng(seed)
	h := newStreamHash()
	ops := make([]msOp, count)
	for i := range ops {
		o := &ops[i]
		o.target = uint8(r.intn(msTargets))
		if o.target == msLedger {
			slots := msLedgerSlots / scale
			o.a = uint32(r.intn(slots))
			if r.chance(msRebalanceShare) {
				o.kind = msRebalance
			} else {
				o.kind = msTransfer
				o.b = uint32(r.intn(slots))
			}
		} else {
			spec := msSpecs[o.target]
			o.a = uint32(r.intn(spec.keyRange / scale))
			switch {
			case !r.chance(spec.updateShare):
				o.kind = msLookup
			case r.chance(0.5):
				o.kind = msInsert
			default:
				o.kind = msRemove
			}
		}
		h.add(uint64(o.target))
		h.add(uint64(o.kind))
		h.add(uint64(o.a))
		h.add(uint64(o.b))
	}
	return ops, h
}

// xfer is one snapshot-audit writer transaction: move d from account
// from to account to.
type xfer struct {
	from, to uint16
	d        uint16
}

// genTransfers generates count transfers between distinct accounts.
func genTransfers(seed uint64, count, accounts int) ([]xfer, streamHash) {
	r := newRng(seed)
	h := newStreamHash()
	ops := make([]xfer, count)
	for i := range ops {
		o := &ops[i]
		o.from = uint16(r.intn(accounts))
		o.to = uint16(r.intn(accounts - 1))
		if o.to >= o.from {
			o.to++
		}
		o.d = uint16(r.intn(10) + 1)
		h.add(uint64(o.from))
		h.add(uint64(o.to))
		h.add(uint64(o.d))
	}
	return ops, h
}
