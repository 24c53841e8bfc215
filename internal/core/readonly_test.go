package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/memory"
)

// Tests for the unlogged first attempt of a ReadOnly() Run (Tx.unlogged)
// and for the per-block memo of access resolution (Tx.resolve).

// twoPartitions installs a plan with sites "a" and "b" in partitions 1 and
// 2, configured by ca and cb, and returns the two sites.
func twoPartitions(t *testing.T, e *Engine, ca, cb PartConfig) (memory.SiteID, memory.SiteID) {
	t.Helper()
	sites := e.Arena().Sites()
	a, b := sites.Register("two.a"), sites.Register("two.b")
	sitePart := make([]PartID, sites.Count())
	sitePart[a], sitePart[b] = 1, 2
	cfgs := []PartConfig{DefaultPartConfig(), ca, cb}
	if err := e.InstallPlan(sitePart, []string{"g", "a", "b"}, cfgs); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestReadOnlyFirstAttemptLogsNothing: a quiet ReadOnly() Run reading
// words one by one and as objects commits on its first attempt with an
// empty read set, and counts as a read-only commit.
func TestReadOnlyFirstAttemptLogsNothing(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	th := e.BorrowThread()
	defer e.ReturnThread(th)
	const n = 100
	var base memory.Addr
	th.Run(func(tx *Tx) error {
		base = tx.Alloc(memory.DefaultSite, n)
		for i := 0; i < n; i++ {
			tx.Store(base+memory.Addr(i), uint64(i))
		}
		return nil
	})
	before := e.StatsSnapshot(GlobalPartition).ROCommits
	var sum uint64
	rsLen, aborts := -1, 0
	err := th.Run(func(tx *Tx) error {
		sum = 0
		for i := 0; i < n/2; i++ {
			sum += tx.Load(base + memory.Addr(i))
		}
		var rest [n / 2]uint64
		tx.LoadWords(base+n/2, rest[:])
		for _, v := range rest {
			sum += v
		}
		rsLen = len(tx.rs)
		return nil
	}, ReadOnly(), OnAbort(func(AbortCause, int) { aborts++ }))
	if err != nil || aborts != 0 {
		t.Fatalf("err %v, %d aborts; want a clean first attempt", err, aborts)
	}
	if want := uint64(n * (n - 1) / 2); sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	if rsLen != 0 {
		t.Fatalf("first read-only attempt logged %d reads, want 0", rsLen)
	}
	if got := e.StatsSnapshot(GlobalPartition).ROCommits - before; got != 1 {
		t.Fatalf("ROCommits grew by %d, want 1", got)
	}
}

// TestReadOnlyStaleReadRetriesLogged: a read made stale by a commit after
// an unlogged read aborts the first attempt exactly once
// (AbortValidation) without moving its snapshot; the retry logs its reads,
// extends past a second such commit, and returns the committed value.
func TestReadOnlyStaleReadRetriesLogged(t *testing.T) {
	cfg := DefaultPartConfig()
	cfg.GranShift = 0
	e := newTestEngine(t, cfg)
	reader, writer := e.BorrowThread(), e.BorrowThread()
	defer e.ReturnThread(reader)
	defer e.ReturnThread(writer)
	var a, b memory.Addr
	writer.Run(func(tx *Tx) error {
		a = tx.Alloc(memory.DefaultSite, 2)
		b = a + 1
		tx.Store(a, 1)
		tx.Store(b, 1)
		return nil
	})
	bump := func() {
		writer.Run(func(tx *Tx) error { tx.Store(b, tx.Load(b)+1); return nil })
	}

	var causes []AbortCause
	attempt := 0
	var got uint64
	var snaps [2]uint64
	err := reader.Run(func(tx *Tx) error {
		attempt++
		tx.Load(a)
		before := tx.Snapshot()
		bump() // b moves past the snapshot on every attempt
		if attempt == 1 {
			snaps[0] = before
			defer func() { snaps[1] = tx.Snapshot() }()
		}
		got = tx.Load(b)
		if attempt == 1 {
			t.Error("first attempt survived a stale read after an unlogged one")
			return nil
		}
		if tx.Snapshot() <= before {
			t.Errorf("retry did not extend: snapshot %d -> %d", before, tx.Snapshot())
		}
		if n := len(tx.rs); n != 2 {
			t.Errorf("retry logged %d reads, want 2", n)
		}
		return nil
	}, ReadOnly(), OnAbort(func(c AbortCause, _ int) { causes = append(causes, c) }))
	if err != nil {
		t.Fatal(err)
	}
	if attempt != 2 || len(causes) != 1 || causes[0] != AbortValidation {
		t.Fatalf("attempts %d, aborts %v; want 2 attempts and one %v", attempt, causes, AbortValidation)
	}
	if snaps[0] != snaps[1] {
		t.Errorf("pinned snapshot moved %d -> %d before the abort", snaps[0], snaps[1])
	}
	if got != 3 {
		t.Fatalf("retry read b = %d, want 3 (two committed increments)", got)
	}
}

// TestReadOnlyMixedVisibility: a ReadOnly() Run that reads an invisible
// and a visible partition serializes at commit, where its unlogged reads
// cannot be validated: the first attempt aborts once and the logged retry
// commits. Beside a writer of cross-partition transfers, every such Run
// sees the exact total.
func TestReadOnlyMixedVisibility(t *testing.T) {
	vis := DefaultPartConfig()
	vis.Read = VisibleReads
	e := newTestEngine(t, DefaultPartConfig())
	invSite, visSite := twoPartitions(t, e, DefaultPartConfig(), vis)
	const cells, initVal = 16, 100
	var inv, vsb memory.Addr
	th := e.BorrowThread()
	defer e.ReturnThread(th)
	th.Run(func(tx *Tx) error {
		inv, vsb = tx.Alloc(invSite, cells), tx.Alloc(visSite, cells)
		for i := 0; i < cells; i++ {
			tx.Store(inv+memory.Addr(i), initVal)
			tx.Store(vsb+memory.Addr(i), initVal)
		}
		return nil
	})
	sum := func(tx *Tx) uint64 {
		var s uint64
		for i := 0; i < cells; i++ {
			s += tx.Load(inv+memory.Addr(i)) + tx.Load(vsb+memory.Addr(i))
		}
		return s
	}

	var causes []AbortCause
	onAbort := OnAbort(func(c AbortCause, _ int) { causes = append(causes, c) })
	var total uint64
	if err := th.Run(func(tx *Tx) error { total = sum(tx); return nil }, ReadOnly(), onAbort); err != nil {
		t.Fatal(err)
	}
	if total != 2*cells*initVal || len(causes) != 1 || causes[0] != AbortValidation {
		t.Fatalf("quiet mixed run: total %d, aborts %v; want %d and one %v",
			total, causes, 2*cells*initVal, AbortValidation)
	}

	e.SetYieldEveryOps(8)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := e.BorrowThread()
		defer e.ReturnThread(w)
		rng := rand.New(rand.NewSource(1))
		for !stop.Load() {
			from, to := inv+memory.Addr(rng.Intn(cells)), vsb+memory.Addr(rng.Intn(cells))
			if rng.Intn(2) == 0 {
				from, to = to, from
			}
			w.Run(func(tx *Tx) error {
				if v := tx.Load(from); v > 0 {
					tx.Store(from, v-1)
					tx.Store(to, tx.Load(to)+1)
				}
				return nil
			})
		}
	}()
	for i := 0; i < 200; i++ {
		th.Run(func(tx *Tx) error { total = sum(tx); return nil }, ReadOnly())
		if total != 2*cells*initVal {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("run %d saw total %d, want %d", i, total, 2*cells*initVal)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestResolveMemoStatsExact: a transaction alternating between blocks of
// two partitions — words and objects, reads and writes, the first access
// to a partition a read and a later one a write — books every access and
// its commit kind to the right partition, before and after an InstallPlan
// that swaps the partitions' sites.
func TestResolveMemoStatsExact(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	sa, sb := twoPartitions(t, e, DefaultPartConfig(), DefaultPartConfig())
	th := e.BorrowThread()
	defer e.ReturnThread(th)
	var a, b memory.Addr
	th.Run(func(tx *Tx) error {
		a, b = tx.Alloc(sa, 8), tx.Alloc(sb, 8)
		return nil
	})
	stats := func() [3]PartStats {
		var s [3]PartStats
		for i := range s {
			s[i] = e.StatsSnapshot(PartID(i))
		}
		return s
	}
	type delta struct{ loads, stores, upd, ro uint64 }
	check := func(when string, before [3]PartStats, want [3]delta) {
		t.Helper()
		after := stats()
		for i := range want {
			got := delta{
				after[i].Loads - before[i].Loads,
				after[i].Stores - before[i].Stores,
				after[i].UpdateCommits - before[i].UpdateCommits,
				after[i].ROCommits - before[i].ROCommits,
			}
			if got != want[i] {
				t.Errorf("%s: partition %d counted %+v, want %+v", when, i, got, want[i])
			}
		}
	}
	var buf [4]uint64
	body := func(tx *Tx) error {
		tx.Load(a)
		tx.Load(b)                 // first touch of b: a read
		tx.StoreWords(b+2, buf[:]) // b now written, through the read's memo
		tx.Load(a + 1)             // back to a's block
		tx.LoadWords(a+4, buf[:])
		tx.Load(b + 7)
		return nil
	}
	// a is only read, b read and written.
	wantAB := func(pa, pb int) [3]delta {
		var w [3]delta
		w[pa] = delta{loads: 6, ro: 1}
		w[pb] = delta{loads: 2, stores: 4, upd: 1}
		return w
	}
	before := stats()
	th.Run(body)
	check("plan 1", before, wantAB(1, 2))

	sites := e.Arena().Sites()
	sitePart := make([]PartID, sites.Count())
	sitePart[sa], sitePart[sb] = 2, 1
	cfgs := []PartConfig{DefaultPartConfig(), DefaultPartConfig(), DefaultPartConfig()}
	if err := e.InstallPlan(sitePart, []string{"g", "b", "a"}, cfgs); err != nil {
		t.Fatal(err)
	}
	before = stats()
	th.Run(body)
	check("plan 2", before, wantAB(2, 1))

	// A read-only Run on the same blocks: both partitions read, none written.
	before = stats()
	th.Run(func(tx *Tx) error {
		tx.Load(a)
		tx.Load(b)
		tx.Load(a + 1)
		return nil
	}, ReadOnly())
	check("read-only", before, [3]delta{{}, {loads: 1, ro: 1}, {loads: 2, ro: 1}})
}
