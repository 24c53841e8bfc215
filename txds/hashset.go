package txds

import "repro/stm"

// HashSet is a fixed-bucket chained hash map. Its short transactions
// (hash, walk a short chain) make it the low-conflict structure of the
// intset family, and its bucket array is the showcase for
// conflict-detection granularity: with coarse orec mapping, operations on
// different buckets false-share orecs.
//
// Nodes are typed objects (stm.Ref[hsNode]): a chain walk loads each
// node with one multi-word read instead of one read per field, so a
// lookup costs one footprint touch per node and snapshot readers
// reconstruct each node from the version store with a single index
// probe. Chain links still go through StoreAddr so profiling runs see
// the bucket→node and node→node edges.
type HashSet struct {
	buckets  stm.Addr // [0]=nbuckets, [1..1+nbuckets) chain heads
	nbuckets uint64
	nodeSite stm.SiteID
}

// hsNode is the heap layout of one chain node; Next is word hsNext.
type hsNode struct {
	Key  uint64
	Val  uint64
	Next stm.Addr
}

const hsNext = 2

// NewHashSet creates a hash set with nbuckets chains (rounded up to a
// power of two) and sites "<name>.buckets" and "<name>.node".
func NewHashSet(tx *stm.Tx, rt *stm.Runtime, name string, nbuckets int) *HashSet {
	bSite := rt.RegisterSite(name + ".buckets")
	nSite := rt.RegisterSite(name + ".node")
	nb := uint64(1)
	for nb < uint64(nbuckets) {
		nb <<= 1
	}
	root := tx.Alloc(bSite, int(nb)+1)
	tx.Store(root, nb)
	for i := uint64(0); i < nb; i++ {
		tx.Store(root+1+stm.Addr(i), uint64(stm.Nil))
	}
	return &HashSet{buckets: root, nbuckets: nb, nodeSite: nSite}
}

// hash mixes k (splitmix64 finalizer) onto a bucket index.
func (h *HashSet) hash(k uint64) uint64 {
	z := k + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return (z ^ (z >> 31)) & (h.nbuckets - 1)
}

func (h *HashSet) bucketCell(k uint64) stm.Addr {
	return h.buckets + 1 + stm.Addr(h.hash(k))
}

// Lookup returns the value stored under k.
func (h *HashSet) Lookup(tx *stm.Tx, k uint64) (uint64, bool) {
	for a := tx.LoadAddr(h.bucketCell(k)); a != stm.Nil; {
		n := stm.RefAt[hsNode](a).Load(tx)
		if n.Key == k {
			return n.Val, true
		}
		a = n.Next
	}
	return 0, false
}

// Contains reports set membership.
func (h *HashSet) Contains(tx *stm.Tx, k uint64) bool {
	_, ok := h.Lookup(tx, k)
	return ok
}

// Insert adds k→v if absent; reports whether it inserted.
func (h *HashSet) Insert(tx *stm.Tx, k, v uint64) bool {
	cell := h.bucketCell(k)
	for a := tx.LoadAddr(cell); a != stm.Nil; {
		n := stm.RefAt[hsNode](a).Load(tx)
		if n.Key == k {
			return false
		}
		a = n.Next
	}
	head := tx.LoadAddr(cell)
	n := stm.AllocRef[hsNode](tx, h.nodeSite)
	n.Store(tx, hsNode{Key: k, Val: v, Next: head})
	tx.StoreAddr(n.WordAddr(hsNext), head)
	tx.StoreAddr(cell, n.Addr())
	return true
}

// Set stores k→v (upsert); reports whether the key was newly inserted.
func (h *HashSet) Set(tx *stm.Tx, k, v uint64) bool {
	cell := h.bucketCell(k)
	for a := tx.LoadAddr(cell); a != stm.Nil; {
		ref := stm.RefAt[hsNode](a)
		n := ref.Load(tx)
		if n.Key == k {
			n.Val = v
			ref.Store(tx, n)
			return false
		}
		a = n.Next
	}
	return h.Insert(tx, k, v)
}

// Remove deletes k, returning its value. The unlink rewrites the
// predecessor's link word (the bucket cell for the chain head) through
// StoreAddr.
func (h *HashSet) Remove(tx *stm.Tx, k uint64) (uint64, bool) {
	cell := h.bucketCell(k)
	for a := tx.LoadAddr(cell); a != stm.Nil; {
		ref := stm.RefAt[hsNode](a)
		n := ref.Load(tx)
		if n.Key == k {
			tx.StoreAddr(cell, n.Next)
			ref.Free(tx)
			return n.Val, true
		}
		cell = ref.WordAddr(hsNext)
		a = n.Next
	}
	return 0, false
}

// Len counts all elements (walks every chain).
func (h *HashSet) Len(tx *stm.Tx) int {
	total := 0
	for b := uint64(0); b < h.nbuckets; b++ {
		for a := tx.LoadAddr(h.buckets + 1 + stm.Addr(b)); a != stm.Nil; {
			total++
			a = stm.RefAt[hsNode](a).Load(tx).Next
		}
	}
	return total
}
