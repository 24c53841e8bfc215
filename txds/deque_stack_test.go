package txds

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/stm"
)

// TestDequeAgainstModel runs random operations on both a Deque and a
// slice model and compares every result and the full contents.
func TestDequeAgainstModel(t *testing.T) {
	rt := newRT(t)
	var d *Deque
	rt.Run(func(tx *stm.Tx) error { d = NewDeque(tx, rt, "dqm"); return nil })

	var model []uint64
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 6000; i++ {
		v := rng.Uint64() % 1000
		switch rng.Intn(6) {
		case 0, 1:
			rt.Run(func(tx *stm.Tx) error { d.PushFront(tx, v); return nil })
			model = append([]uint64{v}, model...)
		case 2, 3:
			rt.Run(func(tx *stm.Tx) error { d.PushBack(tx, v); return nil })
			model = append(model, v)
		case 4:
			var got uint64
			var ok bool
			rt.Run(func(tx *stm.Tx) error { got, ok = d.PopFront(tx); return nil })
			if ok != (len(model) > 0) {
				t.Fatalf("op %d: PopFront ok=%v, model len %d", i, ok, len(model))
			}
			if ok {
				if got != model[0] {
					t.Fatalf("op %d: PopFront = %d, model %d", i, got, model[0])
				}
				model = model[1:]
			}
		case 5:
			var got uint64
			var ok bool
			rt.Run(func(tx *stm.Tx) error { got, ok = d.PopBack(tx); return nil })
			if ok != (len(model) > 0) {
				t.Fatalf("op %d: PopBack ok=%v, model len %d", i, ok, len(model))
			}
			if ok {
				if got != model[len(model)-1] {
					t.Fatalf("op %d: PopBack = %d, model %d", i, got, model[len(model)-1])
				}
				model = model[:len(model)-1]
			}
		}
		if i%500 == 0 {
			rt.Run(func(tx *stm.Tx) error {
				vals := d.Values(tx)
				if len(vals) != len(model) {
					t.Fatalf("op %d: Values len %d, model %d", i, len(vals), len(model))
				}
				for j := range vals {
					if vals[j] != model[j] {
						t.Fatalf("op %d: Values[%d] = %d, model %d", i, j, vals[j], model[j])
					}
				}
				if f, ok := d.Front(tx); ok != (len(model) > 0) || (ok && f != model[0]) {
					t.Fatalf("op %d: Front mismatch", i)
				}
				if bk, ok := d.Back(tx); ok != (len(model) > 0) || (ok && bk != model[len(model)-1]) {
					t.Fatalf("op %d: Back mismatch", i)
				}
				return nil
			}, stm.ReadOnly())
		}
	}
}

// TestDequeSymmetry is the testing/quick law: pushing a sequence at the
// back and popping from the front is FIFO; pushing at the back and popping
// from the back is LIFO.
func TestDequeSymmetry(t *testing.T) {
	rt := newRT(t)
	idx := 0
	f := func(vals []uint64, lifo bool) bool {
		idx++
		var d *Deque
		rt.Run(func(tx *stm.Tx) error { d = NewDeque(tx, rt, "dqs"+itoa(idx)); return nil })
		for _, v := range vals {
			vv := v
			rt.Run(func(tx *stm.Tx) error { d.PushBack(tx, vv); return nil })
		}
		for i := range vals {
			want := vals[i]
			if lifo {
				want = vals[len(vals)-1-i]
			}
			var got uint64
			var ok bool
			rt.Run(func(tx *stm.Tx) error {
				if lifo {
					got, ok = d.PopBack(tx)
				} else {
					got, ok = d.PopFront(tx)
				}
				return nil
			})
			if !ok || got != want {
				return false
			}
		}
		var empty bool
		rt.Run(func(tx *stm.Tx) error { empty = d.Len(tx) == 0; return nil })
		return empty
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestStackAgainstModel runs random push/pop against a slice model.
func TestStackAgainstModel(t *testing.T) {
	rt := newRT(t)
	var s *Stack
	rt.Run(func(tx *stm.Tx) error { s = NewStack(tx, rt, "stm"); return nil })
	var model []uint64
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 6000; i++ {
		v := rng.Uint64() % 1000
		if rng.Intn(2) == 0 {
			rt.Run(func(tx *stm.Tx) error { s.Push(tx, v); return nil })
			model = append(model, v)
			continue
		}
		var got uint64
		var ok bool
		rt.Run(func(tx *stm.Tx) error { got, ok = s.Pop(tx); return nil })
		if ok != (len(model) > 0) {
			t.Fatalf("op %d: Pop ok=%v, model len %d", i, ok, len(model))
		}
		if ok {
			if got != model[len(model)-1] {
				t.Fatalf("op %d: Pop = %d, model %d", i, got, model[len(model)-1])
			}
			model = model[:len(model)-1]
		}
		if i%500 == 0 {
			rt.Run(func(tx *stm.Tx) error {
				if n := s.Len(tx); n != len(model) {
					t.Fatalf("op %d: Len = %d, model %d", i, n, len(model))
				}
				if top, ok := s.Peek(tx); ok != (len(model) > 0) || (ok && top != model[len(model)-1]) {
					t.Fatalf("op %d: Peek mismatch", i)
				}
				return nil
			}, stm.ReadOnly())
		}
	}
}

// TestStackConcurrentConservation pushes a known multiset from several
// goroutines while others pop; total pushed = total popped + remaining.
// All workers are plain goroutines going through the pooled rt.Run —
// no visible Thread management.
func TestStackConcurrentConservation(t *testing.T) {
	rt := newRT(t)
	var s *Stack
	if err := rt.Run(func(tx *stm.Tx) error {
		s = NewStack(tx, rt, "stc")
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	const pushers, perP = 4, 400
	var popped sync.Map
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < pushers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perP; i++ {
				tag := uint64(id*perP + i)
				if err := rt.Run(func(tx *stm.Tx) error {
					s.Push(tx, tag)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var popWg sync.WaitGroup
	for w := 0; w < 2; w++ {
		popWg.Add(1)
		go func() {
			defer popWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var tag uint64
				var ok bool
				if err := rt.Run(func(tx *stm.Tx) error {
					tag, ok = s.Pop(tx)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
				if ok {
					if _, dup := popped.LoadOrStore(tag, true); dup {
						t.Errorf("value %d popped twice", tag)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	popWg.Wait()

	// Drain the remainder single-threaded; the union must be exact.
	for {
		var tag uint64
		var ok bool
		if err := rt.Run(func(tx *stm.Tx) error {
			tag, ok = s.Pop(tx)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if _, dup := popped.LoadOrStore(tag, true); dup {
			t.Fatalf("value %d popped twice (drain)", tag)
		}
	}
	for i := 0; i < pushers*perP; i++ {
		if _, ok := popped.Load(uint64(i)); !ok {
			t.Fatalf("value %d lost", i)
		}
	}
}

// TestDequePooledMixedEnds drives the two deque ends from pooled
// goroutines (rt.Run) with read-only length probes mixed in: front
// workers cycle values through the front, back workers through the back,
// and per-end conservation must hold.
func TestDequePooledMixedEnds(t *testing.T) {
	rt := newRT(t)
	var d *Deque
	if err := rt.Run(func(tx *stm.Tx) error {
		d = NewDeque(tx, rt, "dqp")
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	const workers, perW = 6, 120
	var pushed, popped atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			front := id%2 == 0
			for i := 0; i < perW; i++ {
				if err := rt.Run(func(tx *stm.Tx) error {
					if front {
						d.PushFront(tx, uint64(id))
					} else {
						d.PushBack(tx, uint64(id))
					}
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
				pushed.Add(1)
				if i%3 == 0 {
					if err := rt.Run(func(tx *stm.Tx) error {
						d.Len(tx)
						return nil
					}, stm.ReadOnly()); err != nil {
						t.Error(err)
						return
					}
				}
				var ok bool
				if err := rt.Run(func(tx *stm.Tx) error {
					if front {
						_, ok = d.PopFront(tx)
					} else {
						_, ok = d.PopBack(tx)
					}
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
				if ok {
					popped.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	var remaining int
	if err := rt.Run(func(tx *stm.Tx) error {
		remaining = d.Len(tx)
		return nil
	}, stm.ReadOnly()); err != nil {
		t.Fatal(err)
	}
	if got := popped.Load() + uint64(remaining); got != pushed.Load() {
		t.Fatalf("conservation: pushed %d, popped %d + remaining %d",
			pushed.Load(), popped.Load(), remaining)
	}
}
