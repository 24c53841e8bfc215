package tuning

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/memory"
)

// TestTunerInstallPlanStatsRace runs the started tuner (a continuous
// StatsSnapshot reader) concurrently with transaction traffic and repeated
// plan installs. Under -race this is the regression test for the
// InstallPlan vs StatsSnapshot data race on the per-thread stats slices.
func TestTunerInstallPlanStatsRace(t *testing.T) {
	e := newEngine(t)
	sites := e.Arena().Sites()
	sa := sites.Register("trace.a")
	sb := sites.Register("trace.b")
	var addrs [2]memory.Addr
	setup := e.BorrowThread()
	setup.Run(func(tx *core.Tx) error {
		addrs[0] = tx.Alloc(sa, 4)
		addrs[1] = tx.Alloc(sb, 4)
		for _, a := range addrs {
			for j := 0; j < 4; j++ {
				tx.Store(a+memory.Addr(j), 1)
			}
		}
		return nil
	})
	e.ReturnThread(setup)

	cfg := DefaultConfig()
	cfg.Interval = time.Millisecond
	tn := New(e, cfg)
	tn.Start()
	defer tn.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := e.BorrowThread()
			defer e.ReturnThread(th)
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				a := addrs[rng.Intn(2)] + memory.Addr(rng.Intn(4))
				th.Run(func(tx *core.Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
			}
		}(int64(w) + 1)
	}
	// Extra monitor alongside the tuner, mirroring dashboard readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = e.AllStats()
		}
	}()

	full := make([]core.PartID, sites.Count())
	full[sa], full[sb] = 1, 2
	for i := 0; i < 15; i++ {
		if err := e.InstallPlan(full, []string{"g", "a", "b"},
			[]core.PartConfig{core.DefaultPartConfig(), core.DefaultPartConfig(), core.DefaultPartConfig()}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // let the tuner tick between installs
		if err := e.InstallPlan(make([]core.PartID, sites.Count()), []string{"g"},
			[]core.PartConfig{core.DefaultPartConfig()}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
