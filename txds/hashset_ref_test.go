package txds

import (
	"testing"

	"repro/stm"
)

// TestHashSetInsertRefProfilingEdge: InsertRef stores its value word
// through StoreAddr, so a profiling run records the node→value-object
// pointer edge and the partition analysis groups the value site with the
// directory's sites — the property the network server's keyed object
// space relies on.
func TestHashSetInsertRefProfilingEdge(t *testing.T) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 20})
	valSite := rt.RegisterSite("dir.value")
	rt.StartProfiling()
	var hs *HashSet
	rt.Run(func(tx *stm.Tx) error {
		hs = NewHashSet(tx, rt, "dir", 16)
		return nil
	})
	vals := make(map[uint64]stm.Addr)
	for i := uint64(0); i < 32; i++ {
		rt.Run(func(tx *stm.Tx) error {
			obj := tx.Alloc(valSite, 4)
			tx.Store(obj, i*100)
			if !hs.InsertRef(tx, i, obj) {
				t.Fatalf("InsertRef(%d) found a duplicate", i)
			}
			vals[i] = obj
			return nil
		})
	}
	plan, err := rt.StopProfilingAndPartition()
	if err != nil {
		t.Fatal(err)
	}
	// dir.buckets, dir.node and dir.value must share one partition.
	var part stm.PartID
	rt.Run(func(tx *stm.Tx) error {
		addr, ok := hs.Lookup(tx, 3)
		if !ok {
			t.Fatal("key 3 lost")
		}
		if stm.Addr(addr) != vals[3] {
			t.Fatalf("Lookup(3) = %#x, want %#x", addr, vals[3])
		}
		part = rt.PartitionOf(stm.Addr(addr))
		return nil
	})
	if dirPart := rt.PartitionOf(hs.buckets); dirPart != part {
		t.Fatalf("value objects in partition %d, directory in %d — InsertRef edge not profiled\n%s",
			part, dirPart, plan.Describe(rt.Sites()))
	}
	// InsertRef refuses duplicates like Insert.
	rt.Run(func(tx *stm.Tx) error {
		if hs.InsertRef(tx, 3, vals[3]) {
			t.Fatal("duplicate InsertRef succeeded")
		}
		return nil
	})
}
