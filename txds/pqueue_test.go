package txds

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/stm"
)

// TestPriorityQueueOrdering inserts random priorities and checks PopMin
// yields them in non-decreasing order, duplicates included.
func TestPriorityQueueOrdering(t *testing.T) {
	rt := newRT(t)
	var q *PriorityQueue
	rt.Run(func(tx *stm.Tx) error { q = NewPriorityQueue(tx, rt, "pqo", 1); return nil })

	rng := rand.New(rand.NewSource(11))
	want := make([]uint64, 0, 500)
	for i := 0; i < 500; i++ {
		p := uint64(rng.Intn(50)) // few distinct priorities: force duplicates
		want = append(want, p)
		rt.Run(func(tx *stm.Tx) error { q.Insert(tx, p, uint64(i)); return nil })
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	var got []uint64
	rt.Run(func(tx *stm.Tx) error {
		if n := q.Len(tx); n != len(want) {
			t.Fatalf("Len = %d, want %d", n, len(want))
		}
		got, _ = q.Drain(tx)
		return nil
	})
	if len(got) != len(want) {
		t.Fatalf("drained %d elements, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pop %d: priority %d, want %d", i, got[i], want[i])
		}
	}
	rt.Run(func(tx *stm.Tx) error {
		if _, _, ok := q.PopMin(tx); ok {
			t.Fatal("PopMin succeeded on empty queue")
		}
		if _, _, ok := q.Min(tx); ok {
			t.Fatal("Min succeeded on empty queue")
		}
		if q.Len(tx) != 0 {
			t.Fatal("drained queue not empty")
		}
		return nil
	})
}

// TestPriorityQueueMinMatchesPop checks Min is always what the next
// PopMin removes.
func TestPriorityQueueMinMatchesPop(t *testing.T) {
	rt := newRT(t)
	var q *PriorityQueue
	rt.Run(func(tx *stm.Tx) error { q = NewPriorityQueue(tx, rt, "pqm", 3); return nil })
	rng := rand.New(rand.NewSource(13))
	live := 0
	for i := 0; i < 2000; i++ {
		if live == 0 || rng.Intn(3) != 0 {
			rt.Run(func(tx *stm.Tx) error { q.Insert(tx, uint64(rng.Intn(1000)), uint64(i)); return nil })
			live++
			continue
		}
		rt.Run(func(tx *stm.Tx) error {
			mp, mv, mok := q.Min(tx)
			pp, pv, pok := q.PopMin(tx)
			if !mok || !pok || mp != pp || mv != pv {
				t.Fatalf("Min (%d,%d,%v) != PopMin (%d,%d,%v)", mp, mv, mok, pp, pv, pok)
			}
			return nil
		})
		live--
	}
}

// TestPriorityQueueProperty is the testing/quick law: for any priority
// multiset, draining the queue returns exactly the sorted multiset.
func TestPriorityQueueProperty(t *testing.T) {
	rt := newRT(t)
	idx := 0
	f := func(prios []uint16) bool {
		idx++
		var q *PriorityQueue
		rt.Run(func(tx *stm.Tx) error {
			q = NewPriorityQueue(tx, rt, "pqq"+string(rune('a'+idx%26))+itoa(idx), uint64(idx))
			return nil
		})
		for i, p := range prios {
			pp := uint64(p)
			rt.Run(func(tx *stm.Tx) error { q.Insert(tx, pp, uint64(i)); return nil })
		}
		want := make([]uint64, len(prios))
		for i, p := range prios {
			want[i] = uint64(p)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		var got []uint64
		rt.Run(func(tx *stm.Tx) error { got, _ = q.Drain(tx); return nil })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// TestPriorityQueueConcurrent has producers inserting tagged values and
// consumers popping; afterwards every produced element was consumed
// exactly once (no loss, no duplication under contention).
func TestPriorityQueueConcurrent(t *testing.T) {
	rt := newRT(t)
	var q *PriorityQueue
	rt.Run(func(tx *stm.Tx) error { q = NewPriorityQueue(tx, rt, "pqc", 5); return nil })

	const producers, perP = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perP; i++ {
				tag := uint64(id*perP + i)
				rt.Run(func(tx *stm.Tx) error { q.Insert(tx, tag%37, tag); return nil })
			}
		}(w)
	}
	seen := make([]bool, producers*perP)
	var mu sync.Mutex
	popped := 0
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			misses := 0
			for {
				mu.Lock()
				done := popped >= producers*perP
				mu.Unlock()
				if done {
					return
				}
				var tag uint64
				var ok bool
				rt.Run(func(tx *stm.Tx) error { _, tag, ok = q.PopMin(tx); return nil })
				if !ok {
					misses++
					if misses > 1_000_000 {
						t.Error("consumer starved")
						return
					}
					continue
				}
				mu.Lock()
				if seen[tag] {
					t.Errorf("value %d popped twice", tag)
				}
				seen[tag] = true
				popped++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for i, s := range seen {
		if !s {
			t.Fatalf("value %d lost", i)
		}
	}
}
