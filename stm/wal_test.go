package stm_test

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/stm"
)

func newDurableRuntime(t *testing.T, dir string, d stm.Durability) *stm.Runtime {
	t.Helper()
	rt, err := stm.New(stm.Config{
		HeapWords:  1 << 16,
		BlockShift: 8,
		WAL:        &stm.WALConfig{Dir: dir, Durability: d},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return rt
}

// TestWALRecoverySync: everything a Sync-durable Run acknowledged must be
// present after a crash (simulated by Abandon — the log stops flushing,
// exactly the state an fsynced prefix leaves behind) and a warm restart.
func TestWALRecoverySync(t *testing.T) {
	dir := t.TempDir()
	rt := newDurableRuntime(t, dir, stm.DurabilitySync)
	site := rt.RegisterSite("app.cells")
	const n = 64

	var base stm.Addr
	if err := rt.Run(func(tx *stm.Tx) error {
		base = tx.Alloc(site, n)
		for i := uint64(0); i < n; i++ {
			tx.Store(base+stm.Addr(i), i)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for round := uint64(0); round < 50; round++ {
		if err := rt.Run(func(tx *stm.Tx) error {
			i, j := round%n, (round*7+1)%n
			tx.Store(base+stm.Addr(i), tx.Load(base+stm.Addr(i))+100)
			tx.Store(base+stm.Addr(j), tx.Load(base+stm.Addr(j))+1000)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	var want [n]uint64
	rt.Run(func(tx *stm.Tx) error {
		for i := range want {
			want[i] = tx.Load(base + stm.Addr(i))
		}
		return nil
	})
	rt.WAL().Abandon() // crash: no graceful flush

	rt2 := newDurableRuntime(t, dir, stm.DurabilitySync)
	defer rt2.Close()
	if info := rt2.Recovery(); info == nil || info.Records == 0 {
		t.Fatalf("Recovery() = %+v, want replayed records", rt2.Recovery())
	}
	if err := rt2.Run(func(tx *stm.Tx) error {
		for i := range want {
			if got := tx.Load(base + stm.Addr(i)); got != want[i] {
				t.Fatalf("cell %d = %d after recovery, want %d", i, got, want[i])
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// The recovered runtime must keep working: new allocations must not
	// collide with replayed blocks, and new commits must log.
	if err := rt2.Run(func(tx *stm.Tx) error {
		a := tx.Alloc(rt2.RegisterSite("app.cells"), 4)
		if a >= base && a < base+stm.Addr(n) {
			t.Errorf("post-recovery Alloc returned %d inside the replayed range [%d,%d)", a, base, base+n)
		}
		tx.Store(a, 7)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestWALRecoveryIdempotent is satellite 3 at the runtime level: two
// recoveries over the same directory (replaying the same checkpoint and
// tail) must produce bit-identical heaps.
func TestWALRecoveryIdempotent(t *testing.T) {
	dir := t.TempDir()
	rt := newDurableRuntime(t, dir, stm.DurabilitySync)
	site := rt.RegisterSite("app.data")
	var base stm.Addr
	rt.Run(func(tx *stm.Tx) error {
		base = tx.Alloc(site, 32)
		return nil
	})
	for i := uint64(0); i < 40; i++ {
		rt.Run(func(tx *stm.Tx) error {
			tx.Store(base+stm.Addr(i%32), i*i+1)
			return nil
		})
	}
	if _, err := rt.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for i := uint64(0); i < 20; i++ { // tail beyond the checkpoint
		rt.Run(func(tx *stm.Tx) error {
			tx.Store(base+stm.Addr(i), i+5000)
			return nil
		})
	}
	rt.WAL().Abandon()

	snapshotHeap := func() []uint64 {
		r := newDurableRuntime(t, dir, stm.DurabilitySync)
		defer func() {
			r.WAL().Abandon() // do not extend the log with flush artifacts
		}()
		arena := stm.ArenaOf(r)
		used := arena.BlocksInUse() << arena.BlockShift()
		out := make([]uint64, used)
		for a := uint64(0); a < used; a++ {
			out[a] = arena.Load(stm.Addr(a))
		}
		return out
	}
	h1 := snapshotHeap()
	h2 := snapshotHeap()
	if len(h1) != len(h2) {
		t.Fatalf("recovered heap sizes differ: %d vs %d", len(h1), len(h2))
	}
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("heap word %d differs between recoveries: %d vs %d", i, h1[i], h2[i])
		}
	}
}

// TestCheckpointTruncatesAndRecovers: a checkpoint must bound what replay
// has to redo while recovering the exact same state, and conservation
// must hold across checkpoint + crash + recovery under concurrent load.
func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	rt := newDurableRuntime(t, dir, stm.DurabilitySync)
	site := rt.RegisterSite("bank.accounts")
	const accounts = 32
	const total = accounts * 1000

	var base stm.Addr
	rt.Run(func(tx *stm.Tx) error {
		base = tx.Alloc(site, accounts)
		for i := 0; i < accounts; i++ {
			tx.Store(base+stm.Addr(i), 1000)
		}
		return nil
	})

	// Transfers racing a mid-stream checkpoint.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := uint64(w)
			for {
				select {
				case <-stop:
					return
				default:
				}
				r = r*6364136223846793005 + 1442695040888963407
				i, j, amt := r%accounts, (r>>8)%accounts, (r>>16)%50
				rt.Run(func(tx *stm.Tx) error {
					tx.Store(base+stm.Addr(i), tx.Load(base+stm.Addr(i))-amt)
					tx.Store(base+stm.Addr(j), tx.Load(base+stm.Addr(j))+amt)
					return nil
				})
			}
		}(w)
	}
	for c := 0; c < 3; c++ {
		if _, err := rt.Checkpoint(); err != nil {
			t.Errorf("Checkpoint %d: %v", c, err)
		}
	}
	close(stop)
	wg.Wait()
	if st, ok := rt.WALStats(); !ok || st.Checkpoints != 3 {
		t.Errorf("WALStats = %+v, ok=%v; want 3 checkpoints", st, ok)
	}
	rt.WAL().Abandon()

	rt2 := newDurableRuntime(t, dir, stm.DurabilitySync)
	defer rt2.Close()
	if rt2.Recovery().CheckpointSeq == 0 {
		t.Error("recovery found no checkpoint floor")
	}
	rt2.Run(func(tx *stm.Tx) error {
		var sum uint64
		for i := 0; i < accounts; i++ {
			sum += tx.Load(base + stm.Addr(i))
		}
		if sum != total {
			t.Errorf("recovered balance sum = %d, want %d (conservation violated)", sum, total)
		}
		return nil
	})
}

// TestSyncRunSurfacesNotDurable: once the log is dead (crash simulated
// by Abandon), a DurabilitySync Run must not pretend its commit is
// durable — the commit still applies in memory, but Run returns
// ErrNotDurable instead of a silent nil ack.
func TestSyncRunSurfacesNotDurable(t *testing.T) {
	dir := t.TempDir()
	rt := newDurableRuntime(t, dir, stm.DurabilitySync)
	site := rt.RegisterSite("app.cell")
	var a stm.Addr
	if err := rt.Run(func(tx *stm.Tx) error {
		a = tx.Alloc(site, 1)
		tx.Store(a, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rt.WAL().Abandon() // crash: the log is gone, the heap is not

	err := rt.Run(func(tx *stm.Tx) error {
		tx.Store(a, 2)
		return nil
	})
	if !errors.Is(err, stm.ErrNotDurable) {
		t.Fatalf("update Run on a dead Sync log = %v, want ErrNotDurable", err)
	}
	var nde *stm.NotDurableError
	if !errors.As(err, &nde) {
		t.Fatalf("err = %T, want *NotDurableError", err)
	}

	// Reads make no durability promise: a Run that writes nothing still
	// succeeds, and it must observe the applied-but-unacknowledged store.
	var got uint64
	if err := rt.Run(func(tx *stm.Tx) error {
		got = tx.Load(a)
		return nil
	}); err != nil {
		t.Fatalf("read-only Run on a dead Sync log: %v", err)
	}
	if got != 2 {
		t.Fatalf("cell = %d, want 2 (the non-durable commit still applied in memory)", got)
	}
}

// TestAsyncRunAfterCrashStaysSilent: DurabilityAsync never promised the
// record was on disk, so a dead log must not turn commits into errors.
func TestAsyncRunAfterCrashStaysSilent(t *testing.T) {
	dir := t.TempDir()
	rt := newDurableRuntime(t, dir, stm.DurabilityAsync)
	site := rt.RegisterSite("app.cell")
	var a stm.Addr
	if err := rt.Run(func(tx *stm.Tx) error {
		a = tx.Alloc(site, 1)
		tx.Store(a, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rt.WAL().Abandon()
	if err := rt.Run(func(tx *stm.Tx) error {
		tx.Store(a, 2)
		return nil
	}); err != nil {
		t.Fatalf("async Run after crash = %v, want nil", err)
	}
}

// TestCheckpointFloorIsDurable: a checkpoint never records a floor the
// log has not synced. On a live log whose flusher would otherwise sit out
// an hour-long window it waits for the sync; on a log that died with the
// record unsynced it fails and writes no image.
func TestCheckpointFloorIsDurable(t *testing.T) {
	for _, dies := range []bool{false, true} {
		dir := t.TempDir()
		rt, err := stm.New(stm.Config{
			HeapWords:  1 << 16,
			BlockShift: 8,
			WAL:        &stm.WALConfig{Dir: dir, Durability: stm.DurabilityAsync, GroupCommitInterval: time.Hour},
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		site := rt.RegisterSite("ckpt.cell")
		if err := rt.Run(func(tx *stm.Tx) error {
			tx.Store(tx.Alloc(site, 1), 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if dies {
			rt.WAL().Abandon()
		}
		_, err = rt.Checkpoint()
		_, statErr := os.Stat(filepath.Join(dir, "CHECKPOINT"))
		switch {
		case dies && (err == nil || statErr == nil):
			t.Fatalf("checkpoint over a dead log: err %v, image present %v", err, statErr == nil)
		case !dies && err != nil:
			t.Fatalf("checkpoint over a live log: %v", err)
		case !dies && rt.WAL().DurableSeq() < rt.WAL().SeqHorizon():
			t.Fatalf("checkpoint returned with durable %d below horizon %d",
				rt.WAL().DurableSeq(), rt.WAL().SeqHorizon())
		}
		if !dies {
			rt.Close()
		}
	}
}

// TestDurabilityOffHasNoLog: without Config.WAL the runtime must behave
// exactly as before the durability layer existed.
func TestDurabilityOffHasNoLog(t *testing.T) {
	rt, err := stm.New(stm.Config{HeapWords: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if rt.WAL() != nil || rt.Recovery() != nil {
		t.Error("WAL artifacts present without Config.WAL")
	}
	if _, ok := rt.WALStats(); ok {
		t.Error("WALStats ok without a log")
	}
	if _, err := rt.Checkpoint(); err == nil {
		t.Error("Checkpoint succeeded without a log")
	}
	if err := rt.Close(); err != nil {
		t.Errorf("Close without a log: %v", err)
	}
}
