package apps

import (
	"sync"
	"testing"

	"repro/internal/workload"
)

func TestLabyrinthRouteBasics(t *testing.T) {
	rt := newAppRT(t)
	l := NewLabyrinth(rt, LabyrinthConfig{Width: 8, Height: 8})

	// A straight route across an empty grid is the Manhattan distance + 1.
	if got := l.Route(0, 0, 7, 0); got != 8 {
		t.Fatalf("Route length = %d, want 8", got)
	}
	if occ := l.Occupancy(); occ != 8 {
		t.Fatalf("occupancy = %d, want 8", occ)
	}
	// Endpoints on the claimed path must be refused.
	if got := l.Route(0, 0, 3, 3); got != 0 {
		t.Fatalf("route from occupied endpoint succeeded (len %d)", got)
	}
	// A route below the wall still fits.
	if got := l.Route(0, 2, 7, 2); got != 8 {
		t.Fatalf("second route length = %d, want 8", got)
	}
	if msg := l.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	l.Clear()
	if occ := l.Occupancy(); occ != 0 {
		t.Fatalf("occupancy after clear = %d", occ)
	}
}

func TestLabyrinthRoutesAroundWalls(t *testing.T) {
	rt := newAppRT(t)
	l := NewLabyrinth(rt, LabyrinthConfig{Width: 8, Height: 8})
	// Wall across row 3, full width minus one gap at x=7.
	if got := l.Route(0, 3, 6, 3); got != 7 {
		t.Fatalf("wall route = %d, want 7", got)
	}
	// Route from above to below the wall must detour through the gap.
	got := l.Route(3, 0, 3, 6)
	if got == 0 {
		t.Fatal("no route found around wall")
	}
	if got <= 10 { // direct distance is 7; detour via x=7 costs more
		t.Fatalf("route length %d too short to be a detour", got)
	}
	if msg := l.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestLabyrinthNoRouteWhenBlocked(t *testing.T) {
	rt := newAppRT(t)
	l := NewLabyrinth(rt, LabyrinthConfig{Width: 8, Height: 8})
	// Full wall across row 3: top and bottom halves are disconnected.
	if got := l.Route(0, 3, 7, 3); got != 8 {
		t.Fatalf("wall route = %d, want 8", got)
	}
	if got := l.Route(2, 0, 2, 6); got != 0 {
		t.Fatalf("route across a full wall succeeded (len %d)", got)
	}
}

// TestLabyrinthConcurrentDisjointPaths is the serializability check: many
// goroutines route simultaneously; afterwards every committed path must
// be intact (no cell stolen by another path).
func TestLabyrinthConcurrentDisjointPaths(t *testing.T) {
	rt := newAppRT(t)
	l := NewLabyrinth(rt, LabyrinthConfig{Width: 24, Height: 24})

	const workers = 6
	var wg sync.WaitGroup
	var routed, failed [workers]int
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := workload.NewRng(uint64(id) + 91)
			for i := 0; i < 60; i++ {
				x1, y1 := rng.Intn(24), rng.Intn(24)
				x2, y2 := rng.Intn(24), rng.Intn(24)
				if x1 == x2 && y1 == y2 {
					continue
				}
				if l.Route(x1, y1, x2, y2) > 0 {
					routed[id]++
				} else {
					failed[id]++
				}
			}
		}(w)
	}
	wg.Wait()
	if msg := l.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	total := 0
	for _, r := range routed {
		total += r
	}
	if total == 0 {
		t.Fatal("no routes committed under concurrency")
	}
}

// TestLabyrinthOpClearsCongestion drives Op until the congestion path
// (clear) has certainly triggered and checks the grid stays consistent.
func TestLabyrinthOpClearsCongestion(t *testing.T) {
	rt := newAppRT(t)
	l := NewLabyrinth(rt, LabyrinthConfig{Width: 8, Height: 8})
	rng := workload.NewRng(17)
	for i := 0; i < 400; i++ {
		l.Op(rng)
	}
	if msg := l.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	// With only 64 cells and 400 ops the grid must have been cleared at
	// least once, so occupancy is bounded by a fresh fill, not 400 paths.
	if occ := l.Occupancy(); occ > 64 {
		t.Fatalf("impossible occupancy %d", occ)
	}
}
