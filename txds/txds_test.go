package txds

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/stm"
)

func newRT(t testing.TB) *stm.Runtime {
	t.Helper()
	rt, err := stm.New(stm.Config{HeapWords: 1 << 21, BlockShift: 10})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// setAPI abstracts the common map interface so one model test covers all
// four intset structures.
type setAPI interface {
	Lookup(tx *stm.Tx, k uint64) (uint64, bool)
	Contains(tx *stm.Tx, k uint64) bool
	Insert(tx *stm.Tx, k, v uint64) bool
	Remove(tx *stm.Tx, k uint64) (uint64, bool)
	Len(tx *stm.Tx) int
}

type upserter interface {
	Set(tx *stm.Tx, k, v uint64) bool
}

func makeSets(tx *stm.Tx, rt *stm.Runtime, prefix string) map[string]setAPI {
	return map[string]setAPI{
		"list":     NewList(tx, rt, prefix+".list"),
		"skiplist": NewSkipList(tx, rt, prefix+".skip", 42),
		"rbtree":   NewRBTree(tx, rt, prefix+".tree"),
		"hashset":  NewHashSet(tx, rt, prefix+".hash", 64),
	}
}

// TestSetsAgainstModel runs a long random operation sequence against a
// map[uint64]uint64 model and checks every result.
func TestSetsAgainstModel(t *testing.T) {
	rt := newRT(t)
	var sets map[string]setAPI
	rt.Run(func(tx *stm.Tx) error { sets = makeSets(tx, rt, "model"); return nil })

	for name, s := range sets {
		t.Run(name, func(t *testing.T) {
			model := make(map[uint64]uint64)
			rng := rand.New(rand.NewSource(7))
			const keyRange = 200
			for i := 0; i < 8000; i++ {
				k := uint64(rng.Intn(keyRange))
				v := rng.Uint64()
				switch rng.Intn(4) {
				case 0: // insert
					var got bool
					rt.Run(func(tx *stm.Tx) error { got = s.Insert(tx, k, v); return nil })
					_, existed := model[k]
					if got == existed {
						t.Fatalf("op %d: Insert(%d) = %v, model existed=%v", i, k, got, existed)
					}
					if !existed {
						model[k] = v
					}
				case 1: // remove
					var got uint64
					var ok bool
					rt.Run(func(tx *stm.Tx) error { got, ok = s.Remove(tx, k); return nil })
					want, existed := model[k]
					if ok != existed || (ok && got != want) {
						t.Fatalf("op %d: Remove(%d) = (%d,%v), model (%d,%v)", i, k, got, ok, want, existed)
					}
					delete(model, k)
				case 2: // lookup
					var got uint64
					var ok bool
					rt.Run(func(tx *stm.Tx) error { got, ok = s.Lookup(tx, k); return nil })
					want, existed := model[k]
					if ok != existed || (ok && got != want) {
						t.Fatalf("op %d: Lookup(%d) = (%d,%v), model (%d,%v)", i, k, got, ok, want, existed)
					}
				case 3: // contains
					var got bool
					rt.Run(func(tx *stm.Tx) error { got = s.Contains(tx, k); return nil })
					if _, existed := model[k]; got != existed {
						t.Fatalf("op %d: Contains(%d) = %v, model %v", i, k, got, existed)
					}
				}
			}
			var n int
			rt.Run(func(tx *stm.Tx) error { n = s.Len(tx); return nil })
			if n != len(model) {
				t.Fatalf("Len = %d, model %d", n, len(model))
			}
		})
	}
}

// TestSortedKeys checks the ordered structures return ascending keys.
func TestSortedKeys(t *testing.T) {
	rt := newRT(t)
	var l *List
	var sl *SkipList
	var rb *RBTree
	rt.Run(func(tx *stm.Tx) error {
		l = NewList(tx, rt, "sk.list")
		sl = NewSkipList(tx, rt, "sk.skip", 9)
		rb = NewRBTree(tx, rt, "sk.tree")
		return nil
	})
	keys := []uint64{42, 7, 0, 99, 13, 55, 1, 100, 64}
	for _, k := range keys {
		rt.Run(func(tx *stm.Tx) error {
			l.Insert(tx, k, k*10)
			sl.Insert(tx, k, k*10)
			rb.Insert(tx, k, k*10)
			return nil
		})
	}
	want := append([]uint64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	check := func(name string, got []uint64) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d keys, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: keys %v, want %v", name, got, want)
			}
		}
	}
	rt.Run(func(tx *stm.Tx) error {
		check("list", l.Keys(tx))
		check("skiplist", sl.Keys(tx))
		check("rbtree", rb.Keys(tx))
		return nil
	})
}

func TestUpsert(t *testing.T) {
	rt := newRT(t)
	var sets map[string]setAPI
	rt.Run(func(tx *stm.Tx) error { sets = makeSets(tx, rt, "ups"); return nil })
	for name, s := range sets {
		up, ok := s.(upserter)
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			rt.Run(func(tx *stm.Tx) error {
				if !up.Set(tx, 5, 50) {
					t.Error("Set of fresh key reported update")
				}
				if up.Set(tx, 5, 60) {
					t.Error("Set of existing key reported insert")
				}
				if v, ok := s.Lookup(tx, 5); !ok || v != 60 {
					t.Errorf("Lookup = (%d,%v)", v, ok)
				}
				return nil
			})
		})
	}
}

// TestRBTreeInvariants hammers the tree with skewed insert/delete and
// validates the red-black properties after every batch.
func TestRBTreeInvariants(t *testing.T) {
	rt := newRT(t)
	var rb *RBTree
	rt.Run(func(tx *stm.Tx) error { rb = NewRBTree(tx, rt, "inv.tree"); return nil })
	rng := rand.New(rand.NewSource(3))
	live := make(map[uint64]bool)
	for batch := 0; batch < 60; batch++ {
		rt.Run(func(tx *stm.Tx) error {
			for i := 0; i < 40; i++ {
				k := uint64(rng.Intn(300))
				if rng.Intn(2) == 0 {
					if rb.Insert(tx, k, k) {
						live[k] = true
					}
				} else {
					if _, ok := rb.Remove(tx, k); ok {
						delete(live, k)
					}
				}
			}
			return nil
		})
		rt.Run(func(tx *stm.Tx) error {
			if msg := rb.CheckInvariants(tx); msg != "" {
				t.Fatalf("batch %d: %s", batch, msg)
			}
			if n := rb.Len(tx); n != len(live) {
				t.Fatalf("batch %d: Len=%d live=%d", batch, n, len(live))
			}
			return nil
		})
	}
	// Note: the live map above is mutated inside transactions; single
	// attempts never retry here (no concurrency), so it stays in sync.
}

func TestRBTreeMin(t *testing.T) {
	rt := newRT(t)
	var rb *RBTree
	rt.Run(func(tx *stm.Tx) error { rb = NewRBTree(tx, rt, "min.tree"); return nil })
	rt.Run(func(tx *stm.Tx) error {
		if _, ok := rb.Min(tx); ok {
			t.Error("Min on empty tree")
		}
		rb.Insert(tx, 9, 0)
		rb.Insert(tx, 3, 0)
		rb.Insert(tx, 7, 0)
		if k, ok := rb.Min(tx); !ok || k != 3 {
			t.Errorf("Min = (%d,%v)", k, ok)
		}
		rb.Remove(tx, 3)
		if k, _ := rb.Min(tx); k != 7 {
			t.Errorf("Min after remove = %d", k)
		}
		return nil
	})
}

// TestConcurrentSetMembership checks that concurrent disjoint inserts all
// land, for every structure, under simulated interleaving.
func TestConcurrentSetMembership(t *testing.T) {
	rt, err := stm.New(stm.Config{HeapWords: 1 << 21, BlockShift: 10, YieldEveryOps: 8})
	if err != nil {
		t.Fatal(err)
	}
	var sets map[string]setAPI
	rt.Run(func(tx *stm.Tx) error { sets = makeSets(tx, rt, "conc"); return nil })

	for name, s := range sets {
		t.Run(name, func(t *testing.T) {
			const workers, perW = 4, 400
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(base uint64) {
					defer wg.Done()
					for i := uint64(0); i < perW; i++ {
						k := base*perW + i
						rt.Run(func(tx *stm.Tx) error { s.Insert(tx, k, k); return nil })
					}
				}(uint64(w))
			}
			wg.Wait()
			var n int
			rt.Run(func(tx *stm.Tx) error { n = s.Len(tx); return nil })
			if n != workers*perW {
				t.Fatalf("Len = %d, want %d", n, workers*perW)
			}
			rt.Run(func(tx *stm.Tx) error {
				for w := 0; w < workers; w++ {
					for i := uint64(0); i < perW; i += 37 {
						k := uint64(w)*perW + i
						if !s.Contains(tx, k) {
							t.Fatalf("missing key %d", k)
						}
					}
				}
				return nil
			})
		})
	}
}

// TestConcurrentRBTreeShape runs mixed concurrent updates and validates
// tree shape afterwards.
func TestConcurrentRBTreeShape(t *testing.T) {
	rt, err := stm.New(stm.Config{HeapWords: 1 << 21, BlockShift: 10, YieldEveryOps: 8})
	if err != nil {
		t.Fatal(err)
	}
	var rb *RBTree
	rt.Run(func(tx *stm.Tx) error { rb = NewRBTree(tx, rt, "cshape"); return nil })
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 1200; i++ {
				k := uint64(rng.Intn(500))
				if rng.Intn(100) < 50 {
					rt.Run(func(tx *stm.Tx) error { rb.Insert(tx, k, k); return nil })
				} else {
					rt.Run(func(tx *stm.Tx) error { rb.Remove(tx, k); return nil })
				}
			}
		}(int64(w) + 1)
	}
	wg.Wait()
	rt.Run(func(tx *stm.Tx) error {
		if msg := rb.CheckInvariants(tx); msg != "" {
			t.Fatal(msg)
		}
		return nil
	})
}

func TestCounterArray(t *testing.T) {
	rt := newRT(t)
	var c *CounterArray
	rt.Run(func(tx *stm.Tx) error { c = NewCounterArray(tx, rt, "cnt", 16, 100); return nil })
	if c.N() != 16 {
		t.Fatalf("N = %d", c.N())
	}
	rt.Run(func(tx *stm.Tx) error {
		if s := c.Sum(tx); s != 1600 {
			t.Errorf("Sum = %d", s)
		}
		c.Add(tx, 3, 5)
		if v := c.Get(tx, 3); v != 105 {
			t.Errorf("Get = %d", v)
		}
		if !c.Transfer(tx, 3, 4, 50) {
			t.Error("transfer refused")
		}
		if c.Transfer(tx, 5, 6, 1000) {
			t.Error("overdraft allowed")
		}
		c.Set(tx, 0, 7)
		if v := c.Get(tx, 0); v != 7 {
			t.Errorf("Set/Get = %d", v)
		}
		if s := c.Sum(tx); s != 1600+5-100+7 {
			t.Errorf("final Sum = %d", s)
		}
		return nil
	})
}

// TestCounterConservation checks the bank invariant under concurrency.
func TestCounterConservation(t *testing.T) {
	rt, err := stm.New(stm.Config{HeapWords: 1 << 21, BlockShift: 10, YieldEveryOps: 8})
	if err != nil {
		t.Fatal(err)
	}
	var c *CounterArray
	const n, initBal = 32, 1000
	rt.Run(func(tx *stm.Tx) error { c = NewCounterArray(tx, rt, "bankc", n, initBal); return nil })
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				from, to := rng.Intn(n), rng.Intn(n)
				rt.Run(func(tx *stm.Tx) error { c.Transfer(tx, from, to, uint64(rng.Intn(20))); return nil })
			}
		}(int64(w) * 13)
	}
	wg.Wait()
	rt.Run(func(tx *stm.Tx) error {
		if s := c.Sum(tx); s != n*initBal {
			t.Fatalf("Sum = %d, want %d", s, n*initBal)
		}
		return nil
	})
}

// TestStructuresFormDistinctPartitions profiles one transaction touching
// all structures and confirms the analyzer separates them.
func TestStructuresFormDistinctPartitions(t *testing.T) {
	rt := newRT(t)
	rt.StartProfiling()
	var l *List
	var sl *SkipList
	var rb *RBTree
	var hs *HashSet
	rt.Run(func(tx *stm.Tx) error {
		l = NewList(tx, rt, "pp.list")
		sl = NewSkipList(tx, rt, "pp.skip", 1)
		rb = NewRBTree(tx, rt, "pp.tree")
		hs = NewHashSet(tx, rt, "pp.hash", 16)
		return nil
	})
	for i := uint64(0); i < 30; i++ {
		rt.Run(func(tx *stm.Tx) error {
			l.Insert(tx, i, i)
			sl.Insert(tx, i, i)
			rb.Insert(tx, i, i)
			hs.Insert(tx, i, i)
			return nil
		})
	}
	plan, err := rt.StopProfilingAndPartition()
	if err != nil {
		t.Fatal(err)
	}
	// global + 4 structures (each with 2 sites).
	if got := plan.NumPartitions(); got != 5 {
		t.Fatalf("NumPartitions = %d, want 5\n%s", got, plan.Describe(rt.Sites()))
	}
	// Structures keep working after partitioning, in their own partitions.
	rt.Run(func(tx *stm.Tx) error {
		if !l.Contains(tx, 7) || !sl.Contains(tx, 7) || !rb.Contains(tx, 7) || !hs.Contains(tx, 7) {
			t.Error("data lost across partitioning")
		}
		return nil
	})
}
