package apps

import (
	"fmt"
	"sync/atomic"

	"repro/internal/workload"
	"repro/stm"
	"repro/txds"
)

// Labyrinth is a STAMP-labyrinth-inspired path-routing workload: each
// operation claims a shortest path between two random free cells of a
// shared grid, reading every cell the search frontier touches and writing
// every cell of the chosen path in one transaction. It is the long-
// transaction extreme of the suite — read sets of hundreds of words,
// write sets of tens — and therefore the workload where contention
// management policy (not read visibility) dominates: a suicide CM
// livelocks long routes behind short ones, while older-wins arbitration
// lets them finish. When the grid congests, a clearing transaction wipes
// it (the STAMP benchmark instead pre-sizes its grid to fit all paths).
type Labyrinth struct {
	rt   *stm.Runtime
	grid *txds.CounterArray
	w, h int
	// pathID hands out path ids; it intentionally lives OUTSIDE the
	// transactional heap (ids may be burned by aborted attempts, which is
	// fine — they only need uniqueness, and keeping the counter out of
	// the heap keeps it from serializing all routing transactions). It is
	// atomic because every routing worker draws from it.
	pathID atomic.Uint64
}

// LabyrinthConfig sizes the grid.
type LabyrinthConfig struct {
	Width, Height int
}

// DefaultLabyrinthConfig returns the sizing used by the experiments.
func DefaultLabyrinthConfig() LabyrinthConfig {
	return LabyrinthConfig{Width: 32, Height: 32}
}

// NewLabyrinth allocates the grid (all cells free).
func NewLabyrinth(rt *stm.Runtime, cfg LabyrinthConfig) *Labyrinth {
	if cfg.Width == 0 {
		cfg = DefaultLabyrinthConfig()
	}
	l := &Labyrinth{rt: rt, w: cfg.Width, h: cfg.Height}
	rt.Run(func(tx *stm.Tx) error {
		l.grid = txds.NewCounterArray(tx, rt, "labyrinth.grid", cfg.Width*cfg.Height, 0)
		return nil
	})
	return l
}

func (l *Labyrinth) cell(x, y int) int { return y*l.w + x }

// Route claims a path from (x1,y1) to (x2,y2) in one transaction. It
// returns the path length, or 0 when no free path exists or an endpoint
// is occupied. The BFS reads grid cells transactionally, so the claimed
// path is consistent with every concurrent routing transaction.
func (l *Labyrinth) Route(x1, y1, x2, y2 int) int {
	pathID := l.pathID.Add(1)<<8 | 1 // nonzero marker
	var length int
	l.rt.Run(func(tx *stm.Tx) error {
		length = 0
		if tx.Load(l.grid.Addr(l.cell(x1, y1))) != 0 || tx.Load(l.grid.Addr(l.cell(x2, y2))) != 0 {
			return nil
		}
		// BFS from src to dst over free cells. prev[c] = c2+1 encodes the
		// predecessor; 0 = unvisited. Private (non-transactional) scratch:
		// only the grid reads/writes are part of the transaction.
		prev := make([]int, l.w*l.h)
		queue := []int{l.cell(x1, y1)}
		prev[l.cell(x1, y1)] = l.cell(x1, y1) + 1
		dst := l.cell(x2, y2)
		found := false
		for len(queue) > 0 && !found {
			c := queue[0]
			queue = queue[1:]
			cx, cy := c%l.w, c/l.w
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := cx+d[0], cy+d[1]
				if nx < 0 || ny < 0 || nx >= l.w || ny >= l.h {
					continue
				}
				n := l.cell(nx, ny)
				if prev[n] != 0 {
					continue
				}
				if tx.Load(l.grid.Addr(n)) != 0 {
					continue // occupied: read is part of the snapshot
				}
				prev[n] = c + 1
				if n == dst {
					found = true
					break
				}
				queue = append(queue, n)
			}
		}
		if !found {
			return nil
		}
		// Walk back and claim the path.
		for c := dst; ; c = prev[c] - 1 {
			tx.Store(l.grid.Addr(c), pathID)
			length++
			if prev[c]-1 == c {
				break
			}
		}
		return nil
	})
	return length
}

// Clear wipes the grid in one (very large) transaction.
func (l *Labyrinth) Clear() {
	l.rt.Run(func(tx *stm.Tx) error {
		for i := 0; i < l.w*l.h; i++ {
			l.grid.Set(tx, i, 0)
		}
		return nil
	})
}

// Op routes between two random cells, clearing the grid when it has
// congested (routing keeps failing).
func (l *Labyrinth) Op(rng *workload.Rng) bool {
	x1, y1 := rng.Intn(l.w), rng.Intn(l.h)
	x2, y2 := rng.Intn(l.w), rng.Intn(l.h)
	if x1 == x2 && y1 == y2 {
		return false
	}
	if l.Route(x1, y1, x2, y2) > 0 {
		return true
	}
	// Congestion heuristic: if more than half the grid is claimed, clear.
	var used uint64
	l.rt.Run(func(tx *stm.Tx) error {
		for i := 0; i < l.w*l.h; i++ {
			if l.grid.Get(tx, i) != 0 {
				used++
			}
		}
		return nil
	}, stm.ReadOnly())
	if used > uint64(l.w*l.h/2) {
		l.Clear()
	}
	return false
}

// Occupancy returns the number of claimed cells.
func (l *Labyrinth) Occupancy() int {
	n := 0
	l.rt.Run(func(tx *stm.Tx) error {
		for i := 0; i < l.w*l.h; i++ {
			if l.grid.Get(tx, i) != 0 {
				n++
			}
		}
		return nil
	}, stm.ReadOnly())
	return n
}

// CheckInvariants verifies every claimed path is intact: cells sharing a
// path id form one 4-connected component with no cell claimed twice
// (serializability of routing transactions implies exactly this).
func (l *Labyrinth) CheckInvariants() string {
	var snapshot []uint64
	l.rt.Run(func(tx *stm.Tx) error {
		snapshot = make([]uint64, l.w*l.h)
		for i := range snapshot {
			snapshot[i] = l.grid.Get(tx, i)
		}
		return nil
	}, stm.ReadOnly())
	// Group cells by path id and check connectivity per group.
	cellsByID := map[uint64][]int{}
	for c, id := range snapshot {
		if id != 0 {
			cellsByID[id] = append(cellsByID[id], c)
		}
	}
	for id, cells := range cellsByID {
		inPath := map[int]bool{}
		for _, c := range cells {
			inPath[c] = true
		}
		// Flood from the first cell; all cells of the id must be reached.
		seen := map[int]bool{cells[0]: true}
		stack := []int{cells[0]}
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cx, cy := c%l.w, c/l.w
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := cx+d[0], cy+d[1]
				if nx < 0 || ny < 0 || nx >= l.w || ny >= l.h {
					continue
				}
				n := l.cell(nx, ny)
				if inPath[n] && !seen[n] {
					seen[n] = true
					stack = append(stack, n)
				}
			}
		}
		if len(seen) != len(cells) {
			return fmt.Sprintf("labyrinth: path %d fragmented (%d of %d cells connected)",
				id, len(seen), len(cells))
		}
	}
	return ""
}
