package epoch

import (
	"sync"
	"testing"
	"unsafe"
)

func TestNewTableIdle(t *testing.T) {
	tb := New()
	if h := tb.Horizon(); h != Idle {
		t.Fatalf("fresh table horizon = %d, want Idle", h)
	}
	for i := 0; i < Slots; i++ {
		if s := tb.Load(i); s != Idle {
			t.Fatalf("slot %d = %d, want Idle", i, s)
		}
	}
}

func TestHorizonMinimum(t *testing.T) {
	tb := New()
	tb.Publish(3, 100)
	tb.Publish(17, 42)
	tb.Publish(63, 7000)
	if h := tb.Horizon(); h != 42 {
		t.Fatalf("horizon = %d, want 42", h)
	}
	tb.Clear(17)
	if h := tb.Horizon(); h != 100 {
		t.Fatalf("horizon after clear = %d, want 100", h)
	}
	tb.Clear(3)
	tb.Clear(63)
	if h := tb.Horizon(); h != Idle {
		t.Fatalf("horizon after all clears = %d, want Idle", h)
	}
}

func TestPublishOverwrite(t *testing.T) {
	tb := New()
	tb.Publish(0, 5)
	tb.Publish(0, 9) // a new attempt on the same slot republishes
	if h := tb.Horizon(); h != 9 {
		t.Fatalf("horizon = %d, want 9", h)
	}
}

// TestSlotPadding pins the cache-line layout the package promises: each
// slot occupies exactly one 64-byte line, so a thread's publish never
// invalidates a neighbour's.
func TestSlotPadding(t *testing.T) {
	if sz := unsafe.Sizeof(slot{}); sz != 64 {
		t.Fatalf("slot size = %d bytes, want 64", sz)
	}
	if sz := unsafe.Sizeof(Table{}); sz != 64*Slots {
		t.Fatalf("table size = %d bytes, want %d", sz, 64*Slots)
	}
}

// TestConcurrentSweep runs publishers against horizon sweeps under the
// race detector: the sweep must never observe a value below the smallest
// stamp any publisher ever wrote.
func TestConcurrentSweep(t *testing.T) {
	tb := New()
	const lowest = 10
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(slotIdx int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tb.Publish(slotIdx, uint64(lowest+i%100))
				tb.Clear(slotIdx)
			}
		}(w)
	}
	for i := 0; i < 10000; i++ {
		if h := tb.Horizon(); h < lowest {
			t.Errorf("horizon %d below lowest published stamp %d", h, lowest)
			break
		}
	}
	close(stop)
	wg.Wait()
}
