package trace

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/memory"
)

func newEngine(t testing.TB) *core.Engine {
	t.Helper()
	arena, err := memory.NewArena(memory.Config{CapacityWords: 1 << 18, BlockShift: 8})
	if err != nil {
		t.Fatal(err)
	}
	return core.NewEngine(arena, core.DefaultPartConfig())
}

// TestRecorderCountsCommitsExactly installs a recorder, runs a known
// number of conflict-free transactions, and checks the books.
func TestRecorderCountsCommitsExactly(t *testing.T) {
	e := newEngine(t)
	r := NewRecorder(64)
	e.SetTracer(r)
	th := e.MustAttachThread()
	defer e.DetachThread(th)
	var a memory.Addr
	th.Run(func(tx *core.Tx) error {
		a = tx.Alloc(memory.DefaultSite, 1)
		tx.Store(a, 0)
		return nil
	})
	const n = 100
	for i := 0; i < n; i++ {
		th.Run(func(tx *core.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
	}
	e.SetTracer(nil)
	if got := r.Commits(); got != n+1 {
		t.Fatalf("commits = %d, want %d", got, n+1)
	}
	if r.Retried() != 0 {
		t.Fatalf("retries = %d on a conflict-free run", r.Retried())
	}
	if r.MaxOps() < 2 {
		t.Fatalf("maxOps = %d, want >= 2", r.MaxOps())
	}
	if !strings.Contains(r.Summary(), "commits") {
		t.Fatal("summary missing commits line")
	}
}

// TestRecorderSeesAborts forces an abort and checks cause accounting and
// the retry flag.
func TestRecorderSeesAborts(t *testing.T) {
	e := newEngine(t)
	r := NewRecorder(16)
	e.SetTracer(r)
	th := e.MustAttachThread()
	defer e.DetachThread(th)
	var a memory.Addr
	th.Run(func(tx *core.Tx) error {
		a = tx.Alloc(memory.DefaultSite, 1)
		tx.Store(a, 0)
		return nil
	})
	attempts := 0
	th.Run(func(tx *core.Tx) error {
		attempts++
		if attempts == 1 {
			tx.Load(a)
			tx.Abort()
		}
		tx.Load(a)
		return nil
	})
	e.SetTracer(nil)
	if got := r.Aborts(core.AbortExplicit); got != 1 {
		t.Fatalf("explicit aborts = %d, want 1", got)
	}
	if r.Retried() != 1 {
		t.Fatalf("retries = %d, want 1", r.Retried())
	}
	events := r.Snapshot()
	foundRetry := false
	for _, ev := range events {
		if ev.Attempt == 2 && ev.Cause == core.AbortNone {
			foundRetry = true
		}
	}
	if !foundRetry {
		t.Fatalf("no committed retry in snapshot: %+v", events)
	}
}

// TestRecorderRingWraps records more events than capacity and checks the
// snapshot holds exactly the newest events.
func TestRecorderRingWraps(t *testing.T) {
	r := NewRecorder(8)
	for i := 1; i <= 20; i++ {
		r.TraceAttempt(core.AttemptEvent{Slot: 0, Attempt: 1, Cause: core.AbortNone, Ops: uint64(i)})
	}
	if r.Len() != 20 {
		t.Fatalf("Len = %d", r.Len())
	}
	snap := r.Snapshot()
	if len(snap) != 8 {
		t.Fatalf("snapshot = %d events, want 8", len(snap))
	}
	for i, ev := range snap {
		if want := uint64(13 + i); ev.Ops != want {
			t.Fatalf("snapshot[%d].Ops = %d, want %d", i, ev.Ops, want)
		}
	}
}

// TestRecorderConcurrent hammers the recorder from many goroutines
// through real transactions; totals must be consistent.
func TestRecorderConcurrent(t *testing.T) {
	e := newEngine(t)
	r := NewRecorder(1024)
	e.SetTracer(r)
	setup := e.MustAttachThread()
	var a memory.Addr
	setup.Run(func(tx *core.Tx) error {
		a = tx.Alloc(memory.DefaultSite, 1)
		tx.Store(a, 0)
		return nil
	})
	e.DetachThread(setup)
	const workers, perW = 6, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := e.MustAttachThread()
			defer e.DetachThread(th)
			for i := 0; i < perW; i++ {
				th.Run(func(tx *core.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
			}
		}()
	}
	wg.Wait()
	e.SetTracer(nil)
	// Every worker transaction commits exactly once; the setup tx is +1.
	if got := r.Commits(); got != workers*perW+1 {
		t.Fatalf("commits = %d, want %d", got, workers*perW+1)
	}
	var aborts uint64
	for c := core.AbortCause(1); c < core.NumAbortCauses; c++ {
		aborts += r.Aborts(c)
	}
	if r.Len() != r.Commits()+aborts {
		t.Fatalf("len %d != commits %d + aborts %d", r.Len(), r.Commits(), aborts)
	}
}

// TestTracerRemovalStopsRecording verifies SetTracer(nil) detaches.
func TestTracerRemovalStopsRecording(t *testing.T) {
	e := newEngine(t)
	r := NewRecorder(16)
	e.SetTracer(r)
	th := e.MustAttachThread()
	defer e.DetachThread(th)
	var a memory.Addr
	th.Run(func(tx *core.Tx) error {
		a = tx.Alloc(memory.DefaultSite, 1)
		tx.Store(a, 0)
		return nil
	})
	before := r.Len()
	e.SetTracer(nil)
	for i := 0; i < 50; i++ {
		th.Run(func(tx *core.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
	}
	if r.Len() != before {
		t.Fatalf("recorder grew after removal: %d -> %d", before, r.Len())
	}
}

// TestSchedulerCountersInSummary checks the recorder aggregates wait
// escalations (yields, parks) from attempt events and surfaces them in
// the summary.
func TestSchedulerCountersInSummary(t *testing.T) {
	r := NewRecorder(8)
	r.TraceAttempt(core.AttemptEvent{Slot: 0, Attempt: 1, Cause: core.AbortNone, Yields: 4, Parks: 1})
	r.TraceAttempt(core.AttemptEvent{Slot: 1, Attempt: 2, Cause: core.AbortKilled, Yields: 2})
	if r.Yields() != 6 || r.Parks() != 1 {
		t.Fatalf("scheduler counters = %d/%d, want 6/1", r.Yields(), r.Parks())
	}
	if s := r.Summary(); !strings.Contains(s, "scheduler: 6 yields, 1 parks") {
		t.Fatalf("summary missing scheduler line:\n%s", s)
	}
	if s := NewRecorder(1).Summary(); strings.Contains(s, "scheduler") {
		t.Fatalf("idle summary mentions scheduler:\n%s", s)
	}
}

// TestSnapshotCountersInSummary checks the recorder aggregates
// snapshot-store hits and misses from attempt events and surfaces them
// in the summary.
func TestSnapshotCountersInSummary(t *testing.T) {
	r := NewRecorder(8)
	r.TraceAttempt(core.AttemptEvent{Slot: 0, Attempt: 1, Cause: core.AbortNone, SnapHits: 3, SnapMisses: 1})
	r.TraceAttempt(core.AttemptEvent{Slot: 1, Attempt: 1, Cause: core.AbortNone, SnapHits: 2})
	if r.SnapHits() != 5 || r.SnapMisses() != 1 {
		t.Fatalf("snap counters = %d/%d, want 5/1", r.SnapHits(), r.SnapMisses())
	}
	if s := r.Summary(); !strings.Contains(s, "snapshot store: 5 hits, 1 misses") {
		t.Fatalf("summary missing snapshot line:\n%s", s)
	}
	// And absent when idle.
	if s := NewRecorder(1).Summary(); strings.Contains(s, "snapshot store") {
		t.Fatalf("idle summary mentions snapshot store:\n%s", s)
	}
}
