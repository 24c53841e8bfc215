package core

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/memory"
)

// Tests for the pinned first attempt of a snapshot-mode Run (Tx.unlogged):
// no read set on store-backed partitions, today's logging path everywhere
// else.

const pinObjWords = 8

// pinObjects allocates n eight-word objects (word 0 = balance) in the
// default site.
func pinObjects(t testing.TB, e *Engine, n int, balance uint64) []memory.Addr {
	t.Helper()
	objs := make([]memory.Addr, n)
	th := e.BorrowThread()
	defer e.ReturnThread(th)
	for base := 0; base < n; base += 64 {
		th.Run(func(tx *Tx) error {
			for i := base; i < min(base+64, n); i++ {
				objs[i] = tx.Alloc(memory.DefaultSite, pinObjWords)
				tx.StoreWords(objs[i], []uint64{balance, 0, 0, 0, 0, 0, 0, 0})
			}
			return nil
		})
	}
	return objs
}

// startTransfers runs a writer of whole-object transfers between random
// objects. It spends the budget the caller grants (one transfer per unit),
// so a test decides how many commits may land on one scan whatever the
// scheduler does; stop halts it.
func startTransfers(e *Engine, objs []memory.Addr) (budget *atomic.Int64, stop func()) {
	budget = new(atomic.Int64)
	var halt atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		th := e.BorrowThread()
		defer e.ReturnThread(th)
		rng := rand.New(rand.NewSource(1))
		var a, b [pinObjWords]uint64
		for !halt.Load() {
			from, to := objs[rng.Intn(len(objs))], objs[rng.Intn(len(objs))]
			if from == to || budget.Load() <= 0 {
				runtime.Gosched()
				continue
			}
			budget.Add(-1)
			th.Run(func(tx *Tx) error {
				tx.LoadWords(from, a[:])
				tx.LoadWords(to, b[:])
				a[0]--
				b[0]++
				a[1]++
				tx.StoreWords(from, a[:])
				tx.StoreWords(to, b[:])
				return nil
			})
		}
	}()
	return budget, func() { halt.Store(true); <-done }
}

// TestPinnedScanKeepsNoReadSet: a 4 096-object snapshot scan over a
// store-backed partition ends with an empty read set, beside a writer its
// total is exact and it never aborts (retention is ample), and a quiet
// scan allocates nothing. Scanning goes on past the minimum until some
// scan has reconstructed a read (or a deadline passes): whether a transfer
// lands inside a scan depends on the host's schedule.
func TestPinnedScanKeepsNoReadSet(t *testing.T) {
	cfg := DefaultPartConfig()
	cfg.HistCap = 1 << 16
	e := newTestEngine(t, cfg)
	const objects, balance = 4096, 1 << 20
	objs := pinObjects(t, e, objects, balance)
	th := e.BorrowThread()
	defer e.ReturnThread(th)

	var words [pinObjWords]uint64
	var sum uint64
	rsLen, aborts := -1, 0
	body := func(tx *Tx) error {
		sum = 0
		for _, o := range objs {
			tx.LoadWords(o, words[:])
			sum += words[0]
		}
		rsLen = len(tx.rs)
		return nil
	}
	opts := []TxOpt{Snapshot(), OnAbort(func(AbortCause, int) { aborts++ })}

	if n := testing.AllocsPerRun(5, func() { th.Run(body, opts...) }); n != 0 {
		t.Errorf("a quiet scan allocated %v times, want 0", n)
	}

	// 256 transfers (4 096 records) per scan: far inside the ring, so no
	// scan may miss; the yields let them land mid-scan on one CPU too.
	e.SetYieldEveryOps(64)
	budget, stop := startTransfers(e, objs)
	defer stop()
	hits := func() uint64 { return e.StatsSnapshot(GlobalPartition).SnapHits }
	deadline := time.Now().Add(30 * time.Second)
	for scan := 0; scan < 40 || hits() == 0 && time.Now().Before(deadline); scan++ {
		budget.Store(256)
		if err := th.Run(body, opts...); err != nil {
			t.Fatal(err)
		}
		if sum != objects*balance {
			t.Fatalf("scan %d saw total %d, want %d", scan, sum, uint64(objects*balance))
		}
		if rsLen != 0 {
			t.Fatalf("scan %d ended with %d read-set entries, want 0", scan, rsLen)
		}
	}
	if aborts != 0 {
		t.Errorf("scans aborted %d times under ample retention, want 0", aborts)
	}
	if hits() == 0 {
		t.Error("no read was reconstructed: the writer never landed inside a scan")
	}
}

// TestSnapshotWithoutStoreStillLogs pins the store-less behaviour as
// unchanged: with HistCap == 0 a snapshot attempt logs one entry per orec
// from its first attempt, and a commit landing mid-scan is absorbed by an
// extension, not an abort.
func TestSnapshotWithoutStoreStillLogs(t *testing.T) {
	const cells = 32
	e, base := snapTestSetup(t, DefaultPartConfig(), cells, 7)
	reader, writer := e.BorrowThread(), e.BorrowThread()
	defer e.ReturnThread(reader)
	defer e.ReturnThread(writer)

	attempts := 0
	err := reader.Run(func(tx *Tx) error {
		attempts++
		for j := 0; j < cells/2; j++ {
			tx.Load(base + memory.Addr(j))
		}
		if got := len(tx.rs); got != cells/2 {
			t.Errorf("read set = %d entries after %d loads, want one per orec", got, cells/2)
		}
		before := tx.Snapshot()
		writer.Run(func(wtx *Tx) error { wtx.Store(base+cells-1, 8); return nil })
		if got := tx.Load(base + cells - 1); got != 8 {
			t.Errorf("read %d after the extension, want the new value 8", got)
		}
		if tx.Snapshot() <= before {
			t.Errorf("snapshot stayed at %d: the stale read did not extend", before)
		}
		return nil
	}, Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 1 {
		t.Errorf("scan took %d attempts, want 1 (extension, not abort)", attempts)
	}
	if st := e.StatsSnapshot(GlobalPartition); st.SnapMisses != 1 {
		t.Errorf("SnapMisses = %d, want 1 (the unserved stale read)", st.SnapMisses)
	}
}

// TestPinnedMissDegradesToLogging forces misses with a minimum ring under
// a saturating writer. Every committed scan must be exact; the first
// attempt keeps no read set; every retry accounts for each read either in
// the read set or as a store hit (the logging path, intact); and scans
// keep committing.
func TestPinnedMissDegradesToLogging(t *testing.T) {
	cfg := DefaultPartConfig()
	cfg.HistCap = 1 // rounds up to the 8-record minimum ring
	const cells, initVal = 64, 500
	e, base := snapTestSetup(t, cfg, cells, initVal)
	e.SetYieldEveryOps(8)

	// One saturating writer already outruns the ring; more of them only
	// make every scan take hundreds of attempts on a one-CPU schedule.
	var halt atomic.Bool
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		th := e.BorrowThread()
		defer e.ReturnThread(th)
		rng := rand.New(rand.NewSource(1))
		for !halt.Load() {
			i, j := memory.Addr(rng.Intn(cells)), memory.Addr(rng.Intn(cells))
			th.Run(func(tx *Tx) error {
				if vi := tx.Load(base + i); vi > 0 {
					tx.Store(base+i, vi-1)
					tx.Store(base+j, tx.Load(base+j)+1)
				}
				return nil
			})
		}
	}()

	th := e.BorrowThread()
	var sum uint64
	attempt, retriesDone, loggedRetries := 0, 0, 0
	body := func(tx *Tx) error {
		attempt++
		sum = 0
		for j := 0; j < cells; j++ {
			sum += tx.Load(base + memory.Addr(j))
		}
		rs, hits := len(tx.rs), int(tx.SnapshotHits())
		if attempt == 1 && rs != 0 {
			t.Errorf("first attempt logged %d reads on a store-backed partition", rs)
		}
		if attempt > 1 {
			retriesDone++
			if rs > 0 {
				loggedRetries++
			}
			if rs+hits != cells {
				t.Errorf("retry: %d logged + %d reconstructed reads, want %d in all", rs, hits, cells)
			}
		}
		return nil
	}
	aborts := 0
	onAbort := OnAbort(func(cause AbortCause, _ int) {
		aborts++
		if cause != AbortValidation {
			t.Errorf("snapshot scan aborted with %v, want only %v", cause, AbortValidation)
		}
	})
	for scan := 0; scan < 50 || retriesDone < 20; scan++ {
		attempt = 0
		if err := th.Run(body, Snapshot(), onAbort); err != nil {
			t.Fatal(err)
		}
		if sum != cells*initVal {
			t.Fatalf("scan %d saw sum %d, want %d", scan, sum, cells*initVal)
		}
	}
	halt.Store(true)
	<-writerDone
	e.ReturnThread(th)

	if loggedRetries == 0 {
		t.Errorf("none of %d completed retries had a read set", retriesDone)
	}
	st := e.StatsSnapshot(GlobalPartition)
	if st.SnapMisses == 0 || aborts == 0 {
		t.Errorf("SnapMisses = %d, aborts = %d: the minimum ring forced no miss", st.SnapMisses, aborts)
	}
	if st.ROCommits == 0 {
		t.Error("no read-only commits")
	}
}

// TestMixedFootprintNeverExtendsOnceUnlogged: with a store-backed and a
// store-less partition in one footprint, a stale read on the store-less
// one extends only while every read so far was logged; after an unlogged
// read it aborts, and the retry logs on both partitions.
func TestMixedFootprintNeverExtendsOnceUnlogged(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	sites := e.Arena().Sites()
	backedSite, bareSite := sites.Register("mixed.backed"), sites.Register("mixed.bare")
	sitePart := make([]PartID, sites.Count())
	sitePart[backedSite], sitePart[bareSite] = 1, 2
	backedCfg := DefaultPartConfig()
	backedCfg.HistCap = 256
	cfgs := []PartConfig{DefaultPartConfig(), backedCfg, DefaultPartConfig()}
	if err := e.InstallPlan(sitePart, []string{"g", "backed", "bare"}, cfgs); err != nil {
		t.Fatal(err)
	}
	reader, writer := e.BorrowThread(), e.BorrowThread()
	defer e.ReturnThread(reader)
	defer e.ReturnThread(writer)
	var backed, bare memory.Addr
	writer.Run(func(tx *Tx) error {
		backed, bare = tx.Alloc(backedSite, 1), tx.Alloc(bareSite, 2)
		tx.Store(backed, 1)
		tx.Store(bare, 1)
		tx.Store(bare+1, 1)
		return nil
	})
	bump := func(a memory.Addr) {
		writer.Run(func(tx *Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
	}

	// Logged reads only: the stale store-less read extends.
	var causes []AbortCause
	onAbort := OnAbort(func(c AbortCause, _ int) { causes = append(causes, c) })
	err := reader.Run(func(tx *Tx) error {
		tx.Load(bare)
		before := tx.Snapshot()
		bump(bare + 1)
		tx.Load(bare + 1)
		if tx.Snapshot() <= before || len(tx.rs) != 2 {
			t.Errorf("logged-only attempt: snapshot %d -> %d, read set %d; want an extension and 2 entries",
				before, tx.Snapshot(), len(tx.rs))
		}
		tx.Load(backed) // fresh at the extended snapshot: unlogged
		if len(tx.rs) != 2 {
			t.Errorf("store-backed read was logged (read set %d)", len(tx.rs))
		}
		return nil
	}, Snapshot(), onAbort)
	if err != nil || len(causes) != 0 {
		t.Fatalf("logged-only run: err %v, aborts %v; want a clean first attempt", err, causes)
	}

	// An unlogged read first: the same stale read must abort, not extend.
	attempt := 0
	var snaps [2]uint64
	err = reader.Run(func(tx *Tx) error {
		attempt++
		tx.Load(backed)
		if attempt == 1 {
			snaps[0] = tx.Snapshot()
			bump(bare)
			defer func() { snaps[1] = tx.Snapshot() }()
		}
		tx.Load(bare)
		if attempt == 1 {
			t.Error("first attempt survived a stale read after an unlogged one")
		} else if len(tx.rs) != 2 {
			t.Errorf("retry logged %d reads, want 2 (both partitions)", len(tx.rs))
		}
		return nil
	}, Snapshot(), onAbort)
	if err != nil {
		t.Fatal(err)
	}
	if attempt != 2 || len(causes) != 1 || causes[0] != AbortValidation {
		t.Fatalf("attempts %d, aborts %v; want 2 attempts and one %v", attempt, causes, AbortValidation)
	}
	if snaps[0] != snaps[1] {
		t.Errorf("pinned snapshot moved %d -> %d before the abort", snaps[0], snaps[1])
	}
}

// TestSnapshotPartialObjectWrite is the regression test for word-granular
// orecs and a commit that writes only part of an object (the server's
// ADD): the unwritten words have no history record, so the whole-object
// range read fails, but the stale word alone is reconstructed and the rest
// read fresh — no miss, no abort.
func TestSnapshotPartialObjectWrite(t *testing.T) {
	cfg := DefaultPartConfig()
	cfg.HistCap = 1 << 10
	e := newTestEngine(t, cfg)
	obj := pinObjects(t, e, 1, 100)[0]
	reader, writer := e.BorrowThread(), e.BorrowThread()
	defer e.ReturnThread(reader)
	defer e.ReturnThread(writer)

	var got [pinObjWords]uint64
	attempts := 0
	err := reader.Run(func(tx *Tx) error {
		attempts++
		writer.Run(func(wtx *Tx) error { wtx.Store(obj, wtx.Load(obj)+5); return nil })
		tx.LoadWords(obj, got[:])
		if hits := tx.SnapshotHits(); hits != 1 {
			t.Errorf("reconstructed %d words, want only the written one", hits)
		}
		return nil
	}, Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if want := [pinObjWords]uint64{100}; got != want {
		t.Errorf("object at the snapshot = %v, want %v", got, want)
	}
	if attempts != 1 {
		t.Errorf("read took %d attempts, want 1", attempts)
	}
	if st := e.StatsSnapshot(GlobalPartition); st.SnapMisses != 0 {
		t.Errorf("SnapMisses = %d, want 0", st.SnapMisses)
	}
}
