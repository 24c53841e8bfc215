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

// TestCMAdaptationToArbiter drives a suicide-CM partition into heavy lock
// conflicts and checks heuristic (3) installs older-wins arbitration.
func TestCMAdaptationToArbiter(t *testing.T) {
	e := newEngine(t)
	e.SetYieldEveryOps(4)
	hot := core.DefaultPartConfig()
	hot.CM = core.CMSuicide
	if err := e.Reconfigure(core.GlobalPartition, hot); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.HillClimb = false
	cfg.AdaptCM = true
	cfg.ToVisibleAbortRate = 2.0 // isolate the CM heuristic
	cfg.MinCommits = 10
	// The mechanism, not the production threshold, is under test: trigger
	// as soon as lock conflicts are measurable.
	cfg.ToArbiterConflictRate = 0.005
	cfg.ToSpinConflictRate = 0
	tn := New(e, cfg)

	th := e.BorrowThread()
	const span = 32
	var a memory.Addr
	th.Run(func(tx *core.Tx) error {
		a = tx.Alloc(memory.DefaultSite, span)
		for i := 0; i < span; i++ {
			tx.Store(a+memory.Addr(i), 0)
		}
		return nil
	})

	// The transaction writes the hot word FIRST (taking its encounter-time
	// lock) and then reads a span of other words; the stretched critical
	// section makes concurrent attempts find the orec locked, so aborts
	// show up as lock conflicts — the signal heuristic (3) watches.
	hotTx := func(tx *core.Tx) error {
		tx.Store(a, tx.Load(a)+1)
		for i := 1; i < span; i++ {
			tx.Load(a + memory.Addr(i))
		}
		return nil
	}

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
			th2.Run(hotTx)
		}
	}()

	deadline := time.Now().Add(5 * time.Second)
	switched := false
	for time.Now().Before(deadline) && !switched {
		for i := 0; i < 500; i++ {
			th.Run(hotTx)
		}
		tn.Tick()
		if e.Partition(core.GlobalPartition).Config().CM == core.CMTimestamp {
			switched = true
		}
	}
	close(stop)
	wg.Wait()
	e.ReturnThread(th)
	if !switched {
		s := e.StatsSnapshot(core.GlobalPartition)
		t.Fatalf("tuner never switched CM (abort rate %.2f, aborts %v)", s.AbortRate(), s.Aborts)
	}
}

// TestCMAdaptationBackToSpin starts from CMTimestamp under a conflict-free
// workload and checks the tuner relaxes back to spinning.
func TestCMAdaptationBackToSpin(t *testing.T) {
	e := newEngine(t)
	start := core.DefaultPartConfig()
	start.CM = core.CMTimestamp
	if err := e.Reconfigure(core.GlobalPartition, start); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.HillClimb = false
	cfg.AdaptCM = true
	cfg.ToVisibleAbortRate = 2.0
	cfg.MinCommits = 10
	cfg.Hysteresis = 2
	tn := New(e, cfg)

	decisions := drive(t, e, tn, 8, func(th *core.Thread) {
		var a memory.Addr
		th.Run(func(tx *core.Tx) error {
			a = tx.Alloc(memory.DefaultSite, 1)
			tx.Store(a, 0)
			return nil
		})
		for i := 0; i < 200; i++ {
			th.Run(func(tx *core.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
		}
	})
	if got := e.Partition(core.GlobalPartition).Config().CM; got != core.CMSpin {
		t.Fatalf("CM = %v after conflict-free epochs; decisions: %v", got, decisions)
	}
}

// TestCMAdaptationDisabledByDefault confirms heuristic (3) does not fire
// unless explicitly enabled (the experiments that predate it must be
// unaffected).
func TestCMAdaptationDisabledByDefault(t *testing.T) {
	if DefaultConfig().AdaptCM {
		t.Fatal("AdaptCM must default to off")
	}
}

// TestTimeBaseAdaptation drives heuristic (4) through both directions:
// a partitioned, update-heavy, partition-confined workload must move the
// engine onto partition-local commit counters, and a workload whose
// update commits mostly span partitions must move it back to the global
// counter.
func TestTimeBaseAdaptation(t *testing.T) {
	e := newEngine(t)
	sites := e.Arena().Sites()
	sa := sites.Register("tb.a")
	sb := sites.Register("tb.b")
	full := make([]core.PartID, sites.Count())
	full[sa], full[sb] = 1, 2
	cfgs := []core.PartConfig{core.DefaultPartConfig(), core.DefaultPartConfig(), core.DefaultPartConfig()}
	if err := e.InstallPlan(full, []string{"g", "a", "b"}, cfgs); err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.HillClimb = false
	cfg.AdaptTimeBase = true
	cfg.MinCommits = 10
	cfg.ToPartitionLocalUpdates = 50
	cfg.Hysteresis = 2
	tn := New(e, cfg)

	var aa, ab memory.Addr
	setup := e.BorrowThread()
	setup.Run(func(tx *core.Tx) error {
		aa = tx.Alloc(sa, 1)
		ab = tx.Alloc(sb, 1)
		tx.Store(aa, 0)
		tx.Store(ab, 0)
		return nil
	})
	e.ReturnThread(setup)

	// Phase 1: partition-confined updates — expect the switch to
	// partition-local.
	decs := drive(t, e, tn, 8, func(th *core.Thread) {
		for i := 0; i < 200; i++ {
			a := aa
			if i%2 == 0 {
				a = ab
			}
			th.Run(func(tx *core.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
		}
	})
	toLocal := false
	for _, d := range decs {
		if d.OldTB == core.TimeBaseGlobal && d.NewTB == core.TimeBasePartitionLocal {
			toLocal = true
		}
	}
	if !toLocal {
		t.Fatalf("no switch to partition-local; decisions: %v", decs)
	}
	if e.TimeBaseMode() != core.TimeBasePartitionLocal {
		t.Fatalf("mode = %v after phase 1", e.TimeBaseMode())
	}

	// Phase 2: every update commit spans both partitions — the
	// cross-partition share hits 1.0 and the engine must fall back.
	decs = drive(t, e, tn, 16, func(th *core.Thread) {
		for i := 0; i < 200; i++ {
			th.Run(func(tx *core.Tx) error {
				tx.Store(aa, tx.Load(aa)+1)
				tx.Store(ab, tx.Load(ab)+1)
				return nil
			})
		}
	})
	toGlobal := false
	for _, d := range decs {
		if d.OldTB == core.TimeBasePartitionLocal && d.NewTB == core.TimeBaseGlobal {
			toGlobal = true
		}
	}
	if !toGlobal {
		t.Fatalf("no fallback to global; decisions: %v", decs)
	}
	if e.TimeBaseMode() != core.TimeBaseGlobal {
		t.Fatalf("mode = %v after phase 2", e.TimeBaseMode())
	}
}

// TestTimeBaseAdaptationDisabledByDefault pins heuristic (4) behind its
// flag.
func TestTimeBaseAdaptationDisabledByDefault(t *testing.T) {
	if DefaultConfig().AdaptTimeBase {
		t.Fatal("AdaptTimeBase should default to off")
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

// TestSnapshotAdaptation drives a read-dominated partition with update
// traffic present and checks heuristic (5) attaches the snapshot store;
// then flips the workload to update-dominated and checks it drops it.
func TestSnapshotAdaptation(t *testing.T) {
	e := newEngine(t)
	cfg := DefaultConfig()
	cfg.HillClimb = false
	cfg.AdaptSnapshot = true
	cfg.MinCommits = 10
	cfg.Hysteresis = 2
	cfg.SnapshotHistCap = 64
	tn := New(e, cfg)

	th := e.BorrowThread()
	defer e.ReturnThread(th)
	var a memory.Addr
	th.Run(func(tx *core.Tx) error {
		a = tx.Alloc(memory.DefaultSite, 4)
		tx.Store(a, 0)
		return nil
	})

	readHeavy := func(th *core.Thread) {
		for i := 0; i < 200; i++ {
			if i%10 == 0 {
				th.Run(func(tx *core.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
			} else {
				th.Run(func(tx *core.Tx) error { _ = tx.Load(a); return nil }, core.ReadOnly())
			}
		}
	}
	attached := false
	for epoch := 0; epoch < 20 && !attached; epoch++ {
		readHeavy(th)
		for _, d := range tn.Tick() {
			if d.New.HistCap == cfg.SnapshotHistCap {
				attached = true
			}
		}
	}
	if !attached {
		t.Fatalf("snapshot store never attached; trace: %v", tn.Trace())
	}
	if got := e.Partition(core.GlobalPartition).Config().HistCap; got != cfg.SnapshotHistCap {
		t.Fatalf("HistCap = %d after attach, want %d", got, cfg.SnapshotHistCap)
	}

	writeHeavy := func(th *core.Thread) {
		for i := 0; i < 200; i++ {
			th.Run(func(tx *core.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
		}
	}
	dropped := false
	for epoch := 0; epoch < 20 && !dropped; epoch++ {
		writeHeavy(th)
		for _, d := range tn.Tick() {
			if d.Old.HistCap != 0 && d.New.HistCap == 0 {
				dropped = true
			}
		}
	}
	if !dropped {
		t.Fatalf("snapshot store never dropped; trace: %v", tn.Trace())
	}
	if got := e.Partition(core.GlobalPartition).Config().HistCap; got != 0 {
		t.Fatalf("HistCap = %d after drop, want 0", got)
	}

	// Demand-driven re-attach: snapshot readers hitting stale orecs with
	// no store produce SnapMisses even when they barely commit — the
	// starving-reader signal must attach the store on its own, without
	// any read-only commit share.
	snapDemand := func(th *core.Thread) {
		for i := 0; i < 100; i++ {
			th.Run(func(tx *core.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
			th.Run(func(tx *core.Tx) error {
				// Pin the snapshot on word 0, then force staleness by
				// committing an update to word 1 before reading it.
				_ = tx.Load(a)
				if tx.SnapshotMode() {
					th2 := e.BorrowThread()
					th2.Run(func(wtx *core.Tx) error { wtx.Store(a+1, wtx.Load(a+1)+1); return nil })
					e.ReturnThread(th2)
				}
				_ = tx.Load(a + 1)
				return nil
			}, core.Snapshot())
		}
	}
	reattached := false
	for epoch := 0; epoch < 20 && !reattached; epoch++ {
		snapDemand(th)
		for _, d := range tn.Tick() {
			if d.Old.HistCap == 0 && d.New.HistCap != 0 {
				reattached = true
			}
		}
	}
	if !reattached {
		t.Fatalf("unserved snapshot demand never attached the store; trace: %v", tn.Trace())
	}
}

// TestSnapshotAdaptationDisabledByDefault pins heuristic (5) behind its
// flag.
func TestSnapshotAdaptationDisabledByDefault(t *testing.T) {
	if DefaultConfig().AdaptSnapshot {
		t.Fatal("AdaptSnapshot should default to off")
	}
}

// TestSnapshotRetentionGrowth checks the growth side of heuristic (5):
// an attached but undersized store whose lookups keep dying on evicted
// chain links (mvstore TruncMisses) gets its capacity doubled, while a
// store that misses only for lack of recorded history does not grow.
func TestSnapshotRetentionGrowth(t *testing.T) {
	e := newEngine(t)
	startCfg := core.DefaultPartConfig()
	startCfg.HistCap = 8 // tiny ring: a burst of commits evicts everything
	if err := e.Reconfigure(core.GlobalPartition, startCfg); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.HillClimb = false
	cfg.AdaptSnapshot = true
	cfg.MinCommits = 10
	cfg.Hysteresis = 2
	tn := New(e, cfg)

	th := e.BorrowThread()
	defer e.ReturnThread(th)
	var a memory.Addr
	th.Run(func(tx *core.Tx) error {
		a = tx.Alloc(memory.DefaultSite, 2)
		tx.Store(a, 0)
		tx.Store(a+1, 0)
		return nil
	})
	// Each burst: a snapshot reader pins its snapshot on word 0, then a
	// helper thread commits enough updates to word 1 to wrap the 8-record
	// ring before the reader looks — the covering record is guaranteed
	// evicted, producing a retention miss on every burst.
	burst := func(th *core.Thread) {
		for i := 0; i < 30; i++ {
			th.Run(func(tx *core.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
			th.Run(func(tx *core.Tx) error {
				_ = tx.Load(a)
				if tx.SnapshotMode() {
					th2 := e.BorrowThread()
					for j := 0; j < 16; j++ {
						th2.Run(func(wtx *core.Tx) error { wtx.Store(a+1, wtx.Load(a+1)+1); return nil })
					}
					e.ReturnThread(th2)
				}
				_ = tx.Load(a + 1)
				return nil
			}, core.Snapshot())
		}
	}
	grown := false
	for epoch := 0; epoch < 20 && !grown; epoch++ {
		burst(th)
		for _, d := range tn.Tick() {
			if d.New.HistCap > d.Old.HistCap && d.Old.HistCap == startCfg.HistCap {
				grown = true
			}
		}
	}
	if !grown {
		t.Fatalf("undersized store never grew on retention misses; trace: %v", tn.Trace())
	}
	if got := e.Partition(core.GlobalPartition).Config().HistCap; got < 2*startCfg.HistCap {
		t.Fatalf("HistCap = %d after growth, want >= %d", got, 2*startCfg.HistCap)
	}
}
