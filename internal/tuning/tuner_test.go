package tuning

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/memory"
)

func newEngine(t testing.TB) *core.Engine {
	t.Helper()
	arena, err := memory.NewArena(memory.Config{CapacityWords: 1 << 20, BlockShift: 10})
	if err != nil {
		t.Fatal(err)
	}
	return core.NewEngine(arena, core.DefaultPartConfig())
}

// drive runs a workload for the given number of tuner epochs, calling
// Tick between bursts, and returns all decisions.
func drive(t *testing.T, e *core.Engine, tn *Tuner, epochs int, burst func(th *core.Thread)) []Decision {
	t.Helper()
	th := e.BorrowThread()
	defer e.ReturnThread(th)
	var all []Decision
	for i := 0; i < epochs; i++ {
		burst(th)
		all = append(all, tn.Tick()...)
	}
	return all
}

func TestVisibilitySwitchToVisible(t *testing.T) {
	e := newEngine(t)
	// Suicide CM turns every lock conflict into an abort, and yield
	// injection makes transactions actually overlap on single-CPU hosts,
	// giving the update-heavy workload the abort rate the heuristic
	// looks for.
	e.SetYieldEveryOps(4)
	hot := core.DefaultPartConfig()
	hot.CM = core.CMSuicide
	if err := e.Reconfigure(core.GlobalPartition, hot); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.HillClimb = false
	cfg.MinCommits = 10
	tn := New(e, cfg)

	th := e.BorrowThread()
	var a memory.Addr
	th.Run(func(tx *core.Tx) error {
		a = tx.Alloc(memory.DefaultSite, 1)
		tx.Store(a, 0)
		return nil
	})

	// Update-heavy contended workload: two threads increment one word.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		th2 := e.BorrowThread()
		defer e.ReturnThread(th2)
		for {
			select {
			case <-stop:
				return
			default:
			}
			th2.Run(func(tx *core.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
		}
	}()

	deadline := time.Now().Add(5 * time.Second)
	switched := false
	for time.Now().Before(deadline) && !switched {
		for i := 0; i < 500; i++ {
			th.Run(func(tx *core.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
		}
		tn.Tick()
		if e.Partition(core.GlobalPartition).Config().Read == core.VisibleReads {
			switched = true
		}
	}
	close(stop)
	wg.Wait()
	if !switched {
		s := e.StatsSnapshot(core.GlobalPartition)
		t.Fatalf("tuner never switched to visible reads (update ratio %.2f, abort rate %.2f)",
			s.UpdateRatio(), s.AbortRate())
	}
	if len(tn.Trace()) == 0 {
		t.Fatal("empty trace after a switch")
	}
}

func TestVisibilitySwitchBackToInvisible(t *testing.T) {
	e := newEngine(t)
	start := core.DefaultPartConfig()
	start.Read = core.VisibleReads
	if err := e.Reconfigure(core.GlobalPartition, start); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.HillClimb = false
	cfg.MinCommits = 10
	cfg.Hysteresis = 2
	tn := New(e, cfg)

	th := e.BorrowThread()
	var a memory.Addr
	th.Run(func(tx *core.Tx) error {
		a = tx.Alloc(memory.DefaultSite, 8)
		tx.Store(a, 0)
		return nil
	})

	// Read-only workload: update ratio ~0, abort rate ~0.
	decisions := drive(t, e, tn, 6, func(th *core.Thread) {
		for i := 0; i < 200; i++ {
			th.Run(func(tx *core.Tx) error { tx.Load(a); return nil }, core.ReadOnly())
		}
	})
	if got := e.Partition(core.GlobalPartition).Config().Read; got != core.InvisibleReads {
		t.Fatalf("read mode = %v after read-only epochs; decisions: %v", got, decisions)
	}
}

func TestHillClimbProbesAndReverts(t *testing.T) {
	e := newEngine(t)
	cfg := DefaultConfig()
	cfg.ToVisibleAbortRate = 2.0 // disable visibility switching
	cfg.MinCommits = 10
	cfg.ProbeEvery = 1
	cfg.ImproveFrac = 100.0 // impossible improvement: every probe must revert
	tn := New(e, cfg)

	startBits := e.Partition(core.GlobalPartition).Config().LockBits
	drive(t, e, tn, 12, func(th *core.Thread) {
		var a memory.Addr
		th.Run(func(tx *core.Tx) error {
			a = tx.Alloc(memory.DefaultSite, 4)
			tx.Store(a, 1)
			return nil
		})
		for i := 0; i < 100; i++ {
			th.Run(func(tx *core.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
		}
	})
	tr := tn.Trace()
	if len(tr) == 0 {
		t.Fatal("hill climber never probed")
	}
	var probes, reverts int
	for _, d := range tr {
		switch {
		case d.New.LockBits != d.Old.LockBits && d.Reason[:5] == "probe":
			probes++
		case d.Reason[:6] == "revert":
			reverts++
		}
	}
	if probes == 0 || reverts == 0 {
		t.Fatalf("probes=%d reverts=%d; trace: %v", probes, reverts, tr)
	}
	// With an unachievable improvement threshold, bits must end where they
	// started (every probe reverted).
	if got := e.Partition(core.GlobalPartition).Config().LockBits; got != startBits {
		t.Fatalf("lockBits drifted: %d -> %d", startBits, got)
	}
}

func TestHillClimbRespectsBounds(t *testing.T) {
	e := newEngine(t)
	base := core.DefaultPartConfig()
	base.LockBits = 4
	if err := e.Reconfigure(core.GlobalPartition, base); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ToVisibleAbortRate = 2.0
	cfg.MinCommits = 10
	cfg.ProbeEvery = 1
	cfg.MinLockBits = 4
	cfg.MaxLockBits = 5
	cfg.ImproveFrac = 0.0 // accept everything: bits would run away if unbounded
	tn := New(e, cfg)
	drive(t, e, tn, 20, func(th *core.Thread) {
		var a memory.Addr
		th.Run(func(tx *core.Tx) error {
			a = tx.Alloc(memory.DefaultSite, 4)
			tx.Store(a, 1)
			return nil
		})
		for i := 0; i < 100; i++ {
			th.Run(func(tx *core.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
		}
	})
	got := e.Partition(core.GlobalPartition).Config().LockBits
	if got < 4 || got > 5 {
		t.Fatalf("lockBits %d escaped bounds [4,5]", got)
	}
}

func TestIdlePartitionLeftAlone(t *testing.T) {
	e := newEngine(t)
	cfg := DefaultConfig()
	cfg.MinCommits = 1000000 // everything is idle
	tn := New(e, cfg)
	th := e.BorrowThread()
	defer e.ReturnThread(th)
	var a memory.Addr
	th.Run(func(tx *core.Tx) error {
		a = tx.Alloc(memory.DefaultSite, 1)
		tx.Store(a, 0)
		return nil
	})
	for i := 0; i < 8; i++ {
		th.Run(func(tx *core.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
		tn.Tick()
	}
	if got := len(tn.Trace()); got != 0 {
		t.Fatalf("tuner touched an idle partition: %v", tn.Trace())
	}
	if tn.Epoch() != 8 {
		t.Fatalf("Epoch = %d", tn.Epoch())
	}
}

func TestStartStop(t *testing.T) {
	e := newEngine(t)
	cfg := DefaultConfig()
	cfg.Interval = time.Millisecond
	tn := New(e, cfg)
	tn.Start()
	time.Sleep(20 * time.Millisecond)
	tn.Stop()
	if tn.Epoch() == 0 {
		t.Fatal("Start never ticked")
	}
	// Stop must be idempotent.
	tn.Stop()
}

func TestDecisionString(t *testing.T) {
	d := Decision{Epoch: 3, Part: 1, Name: "x", Old: core.DefaultPartConfig(), New: core.DefaultPartConfig(), Reason: "r"}
	if d.String() == "" {
		t.Fatal("empty decision string")
	}
}
