package txds

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/stm"
)

// ranger is the common Range surface of the ordered structures.
type ranger interface {
	Insert(tx *stm.Tx, k, v uint64) bool
	Range(tx *stm.Tx, lo, hi uint64, visit func(k, v uint64) bool)
}

func makeRangers(tx *stm.Tx, rt *stm.Runtime, prefix string) map[string]ranger {
	return map[string]ranger{
		"list":     NewList(tx, rt, prefix+".list"),
		"skiplist": NewSkipList(tx, rt, prefix+".skip", 5),
		"rbtree":   NewRBTree(tx, rt, prefix+".tree"),
		"btree":    NewBTree(tx, rt, prefix+".btree"),
	}
}

// TestRangeAgainstModel populates all four ordered structures with the
// same random keys and compares every Range query against a sorted-slice
// model.
func TestRangeAgainstModel(t *testing.T) {
	rt := newRT(t)
	var rs map[string]ranger
	rt.Run(func(tx *stm.Tx) error { rs = makeRangers(tx, rt, "rng"); return nil })

	rng := rand.New(rand.NewSource(83))
	model := map[uint64]uint64{}
	for i := 0; i < 400; i++ {
		k := uint64(rng.Intn(1000))
		v := uint64(i)
		rt.Run(func(tx *stm.Tx) error {
			for _, r := range rs {
				r.Insert(tx, k, v)
			}
			return nil
		})
		if _, ok := model[k]; !ok {
			model[k] = v
		}
	}
	keys := make([]uint64, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	queries := [][2]uint64{
		{0, 999}, {100, 200}, {500, 500}, {990, 2000}, {700, 100} /* empty */, {0, 0},
	}
	for name, r := range rs {
		for _, q := range queries {
			lo, hi := q[0], q[1]
			var want [][2]uint64
			for _, k := range keys {
				if k >= lo && k <= hi {
					want = append(want, [2]uint64{k, model[k]})
				}
			}
			var got [][2]uint64
			rt.Run(func(tx *stm.Tx) error {
				got = got[:0]
				r.Range(tx, lo, hi, func(k, v uint64) bool {
					got = append(got, [2]uint64{k, v})
					return true
				})
				return nil
			}, stm.ReadOnly())
			if len(got) != len(want) {
				t.Fatalf("%s Range[%d,%d]: %d results, want %d", name, lo, hi, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s Range[%d,%d][%d] = %v, want %v", name, lo, hi, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRangeEarlyStop checks the visitor's false return stops every
// structure's scan immediately.
func TestRangeEarlyStop(t *testing.T) {
	rt := newRT(t)
	var rs map[string]ranger
	rt.Run(func(tx *stm.Tx) error { rs = makeRangers(tx, rt, "res"); return nil })
	rt.Run(func(tx *stm.Tx) error {
		for k := uint64(0); k < 100; k++ {
			for _, r := range rs {
				r.Insert(tx, k, k)
			}
		}
		return nil
	})
	for name, r := range rs {
		count := 0
		rt.Run(func(tx *stm.Tx) error {
			count = 0
			r.Range(tx, 0, 99, func(k, v uint64) bool {
				count++
				return count < 5
			})
			return nil
		}, stm.ReadOnly())
		if count != 5 {
			t.Fatalf("%s visited %d after early stop, want 5", name, count)
		}
	}
}

// TestRangeProperty is the testing/quick law: Range over the full domain
// visits exactly the inserted key set ascending, on every structure.
func TestRangeProperty(t *testing.T) {
	rt := newRT(t)
	idx := 0
	f := func(ks []uint16) bool {
		idx++
		var rs map[string]ranger
		rt.Run(func(tx *stm.Tx) error { rs = makeRangers(tx, rt, "rp"+itoa(idx)); return nil })
		set := map[uint64]bool{}
		for _, k := range ks {
			kk := uint64(k)
			rt.Run(func(tx *stm.Tx) error {
				for _, r := range rs {
					r.Insert(tx, kk, kk)
				}
				return nil
			})
			set[kk] = true
		}
		ok := true
		rt.Run(func(tx *stm.Tx) error {
			for _, r := range rs {
				var got []uint64
				r.Range(tx, 0, ^uint64(0), func(k, v uint64) bool {
					got = append(got, k)
					return true
				})
				if len(got) != len(set) {
					ok = false
					return nil
				}
				for i, k := range got {
					if !set[k] || (i > 0 && got[i-1] >= k) {
						ok = false
						return nil
					}
				}
			}
			return nil
		}, stm.ReadOnly())
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
