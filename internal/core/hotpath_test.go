package core

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/memory"
)

// TestReadSetLogsEveryRead pins the read set's cost model: it is an append
// log, as in TL2, so every logged read adds one entry. k passes of Load
// over w words leave exactly k·w entries, and one LoadWords adds one entry
// per orec of each window's span. The reads run in an update Run that
// writes nothing: a ReadOnly() first attempt keeps no read set at all.
func TestReadSetLogsEveryRead(t *testing.T) {
	setup := func(t *testing.T, granShift uint, words int) (*Thread, memory.Addr) {
		cfg := DefaultPartConfig()
		cfg.GranShift = granShift
		e := newTestEngine(t, cfg)
		th := e.BorrowThread()
		t.Cleanup(func() { e.ReturnThread(th) })
		var base memory.Addr
		th.Run(func(tx *Tx) error {
			base = tx.Alloc(memory.SiteID(0), words)
			for i := 0; i < words; i++ {
				tx.Store(base+memory.Addr(i), uint64(i))
			}
			return nil
		})
		return th, base
	}
	for _, tc := range []struct {
		name          string
		words, passes int
	}{{"small", 8, 100}, {"large", 200, 20}} {
		t.Run(tc.name, func(t *testing.T) {
			th, base := setup(t, 0, tc.words)
			th.Run(func(tx *Tx) error {
				for p := 0; p < tc.passes; p++ {
					for i := 0; i < tc.words; i++ {
						if got := tx.Load(base + memory.Addr(i)); got != uint64(i) {
							t.Fatalf("load %d = %d", i, got)
						}
					}
				}
				if got, want := len(tx.rs), tc.passes*tc.words; got != want {
					t.Fatalf("%d passes over %d words: read set has %d entries, want %d",
						tc.passes, tc.words, got, want)
				}
				return nil
			})
		})
	}
	t.Run("coarse-grain", func(t *testing.T) {
		const words = 64
		th, base := setup(t, 3, words) // 8 words per orec
		want := 0                      // orecs in each sweepWords window's span
		for w := uint64(base); w < uint64(base)+words; w += sweepWords {
			want += int((w+sweepWords-1)>>3 - w>>3 + 1)
		}
		th.Run(func(tx *Tx) error {
			dst := make([]uint64, words)
			tx.LoadWords(base, dst)
			if got := len(tx.rs); got != want {
				t.Fatalf("LoadWords of %d words logged %d entries, want %d (one per orec of each window)",
					words, got, want)
			}
			return nil
		})
	})
}

// TestWriteSetDedupAllModes checks the open-addressed write-set index of
// the write-back write set: one entry per unique address regardless of
// write count, correct read-after-write, and correct committed values —
// for both the inline-probe (≤8 entries) and indexed (larger) regimes.
func TestWriteSetDedupAllModes(t *testing.T) {
	for _, words := range []int{4, 64} {
		name := "wb-small"
		if words > wsSmallMax {
			name = "wb-large"
		}
		t.Run(name, func(t *testing.T) {
			e := newTestEngine(t, DefaultPartConfig())
			th := e.BorrowThread()
			defer e.ReturnThread(th)
			var base memory.Addr
			th.Run(func(tx *Tx) error {
				base = tx.Alloc(memory.SiteID(0), words)
				for i := 0; i < words; i++ {
					tx.Store(base+memory.Addr(i), 0)
				}
				return nil
			})
			th.Run(func(tx *Tx) error {
				for round := 0; round < 5; round++ {
					for i := 0; i < words; i++ {
						tx.Store(base+memory.Addr(i), uint64(round*1000+i))
					}
				}
				if got := len(tx.ws); got != words {
					t.Fatalf("write set has %d entries after %d stores; want %d",
						got, 5*words, words)
				}
				for i := 0; i < words; i++ {
					if got := tx.Load(base + memory.Addr(i)); got != uint64(4000+i) {
						t.Fatalf("read-after-write %d = %d, want %d", i, got, 4000+i)
					}
				}
				return nil
			})
			th.Run(func(tx *Tx) error {
				for i := 0; i < words; i++ {
					if got := tx.Load(base + memory.Addr(i)); got != uint64(4000+i) {
						t.Fatalf("committed %d = %d, want %d", i, got, 4000+i)
					}
				}
				return nil
			}, ReadOnly())
		})
	}
}

// TestSpinWaitProducesPause asserts the backoff pause primitive actually
// pauses: the old empty loops were compiled away, making every randomized
// backoff a no-op. Distinct spin counts must produce distinctly long
// pauses. Minimum-over-tries filters scheduler noise.
func TestSpinWaitProducesPause(t *testing.T) {
	minOver := func(n uint64) time.Duration {
		best := time.Duration(1<<63 - 1)
		for try := 0; try < 8; try++ {
			t0 := time.Now()
			spinWait(n)
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	zero := minOver(0)
	mid := minOver(1 << 16)
	big := minOver(1 << 20)
	if big < 50*time.Microsecond {
		t.Fatalf("spinWait(1<<20) took %v; the pause loop is being compiled away", big)
	}
	if big < 4*mid {
		t.Fatalf("pause not scaling: spinWait(1<<16)=%v, spinWait(1<<20)=%v", mid, big)
	}
	if zero > mid {
		t.Fatalf("spinWait(0)=%v exceeds spinWait(1<<16)=%v", zero, mid)
	}
}

// TestInstallPlanStatsRace drives transactions, repeated plan installs and
// concurrent stats snapshots; under -race this is the regression test for
// the InstallPlan vs StatsSnapshot data race on the per-thread stats
// slices.
func TestInstallPlanStatsRace(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	sites := e.Arena().Sites()
	sa := sites.Register("race.a")
	sb := sites.Register("race.b")
	var addrs [2]memory.Addr
	setup := e.BorrowThread()
	setup.Run(func(tx *Tx) error {
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

	var before PartStats
	for _, s := range e.AllStats() {
		before.add(&s)
	}
	// What the workers execute, counted per attempt just before each access:
	// every attempt's accesses must reach the statistics, committed or not,
	// whichever plan was live when it ran.
	var loads, stores, runs atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
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
				th.Run(func(tx *Tx) error {
					loads.Add(1)
					v := tx.Load(a)
					stores.Add(1)
					tx.Store(a, v+1)
					return nil
				})
				runs.Add(1)
			}
		}(int64(w) + 1)
	}
	// Monitor: continuous snapshots (the racing reader of the old code).
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
			_ = e.StatsSnapshot(GlobalPartition)
		}
	}()
	// Installer: alternately install a two-partition plan and revert.
	full := make([]PartID, sites.Count())
	full[sa], full[sb] = 1, 2
	for i := 0; i < 20; i++ {
		if err := e.InstallPlan(full, []string{"g", "a", "b"},
			[]PartConfig{DefaultPartConfig(), DefaultPartConfig(), DefaultPartConfig()}); err != nil {
			t.Fatal(err)
		}
		if err := e.InstallPlan(make([]PartID, sites.Count()), []string{"g"},
			[]PartConfig{DefaultPartConfig()}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	// Live blocks plus the retired aggregate account for every access of
	// every attempt across all forty installs.
	var after PartStats
	for _, s := range e.AllStats() {
		after.add(&s)
	}
	d := after.Sub(before)
	if d.Loads != loads.Load() || d.Stores != stores.Load() || d.Commits != runs.Load() {
		t.Fatalf("after 40 installs: loads %d stores %d commits %d, executed %d %d %d",
			d.Loads, d.Stores, d.Commits, loads.Load(), stores.Load(), runs.Load())
	}
	if attempts := loads.Load(); d.Commits+d.TotalAborts() != attempts {
		t.Fatalf("commits %d + aborts %d != %d attempts", d.Commits, d.TotalAborts(), attempts)
	}
}

// TestInstallPlanPreservesStats asserts commit/abort history survives a
// plan install: the old code silently zeroed every counter, making any
// experiment spanning an install under-report throughput.
func TestInstallPlanPreservesStats(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	sites := e.Arena().Sites()
	sa := sites.Register("keep.a")
	th := e.BorrowThread()
	var a memory.Addr
	th.Run(func(tx *Tx) error {
		a = tx.Alloc(sa, 1)
		tx.Store(a, 0)
		return nil
	})
	const n = 500
	for i := 0; i < n; i++ {
		th.Run(func(tx *Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
	}
	total := func() (commits, loads uint64) {
		for _, s := range e.AllStats() {
			commits += s.Commits
			loads += s.Loads
		}
		return
	}
	c0, l0 := total()
	if c0 < n {
		t.Fatalf("precondition: %d commits before install, want >= %d", c0, n)
	}
	full := make([]PartID, sites.Count())
	full[sa] = 1
	if err := e.InstallPlan(full, []string{"g", "a"},
		[]PartConfig{DefaultPartConfig(), DefaultPartConfig()}); err != nil {
		t.Fatal(err)
	}
	c1, l1 := total()
	if c1 != c0 || l1 != l0 {
		t.Fatalf("install dropped history: commits %d -> %d, loads %d -> %d", c0, c1, l0, l1)
	}
	// And the clock keeps running on top of the preserved aggregate.
	for i := 0; i < 100; i++ {
		th.Run(func(tx *Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
	}
	// A plan installed BETWEEN two attempts of one Run (from the abort hook:
	// the aborted attempt has been flushed and the thread has left the
	// gate) loses neither attempt: the first one's accesses are in the
	// retired aggregate, the second one's in the fresh blocks.
	c2, l2 := total()
	attempts := 0
	err := th.Run(func(tx *Tx) error {
		attempts++
		for i := 0; i < 5; i++ {
			tx.Load(a)
		}
		if attempts == 1 {
			tx.Abort()
		}
		return nil
	}, OnAbort(func(AbortCause, int) {
		if err := e.InstallPlan(make([]PartID, sites.Count()), []string{"g"},
			[]PartConfig{DefaultPartConfig()}); err != nil {
			t.Error(err)
		}
	}))
	if err != nil || attempts != 2 {
		t.Fatalf("Run across an install: err %v after %d attempts", err, attempts)
	}
	c3, l3 := total()
	if c3 != c2+1 || l3 != l2+10 {
		t.Fatalf("install between attempts: commits %d -> %d (want +1), loads %d -> %d (want +10)", c2, c3, l2, l3)
	}
	var aborts uint64
	for _, s := range e.AllStats() {
		aborts += s.Aborts[AbortExplicit]
	}
	if aborts != 1 {
		t.Fatalf("explicit aborts = %d after the install, want 1", aborts)
	}
	e.ReturnThread(th)
	c4, _ := total()
	if c4 < c1+100 {
		t.Fatalf("post-install commits not accumulating: %d -> %d", c1, c4)
	}
}

// TestStatsExactAcrossAttempts checks that batching the per-access counters
// on the attempt changed when they become visible and nothing else: after
// the last Run returns, each partition's loads, stores, commits and abort
// causes are exactly what the committed AND the aborted attempts executed —
// word counts of multi-word accesses included.
func TestStatsExactAcrossAttempts(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	sites := e.Arena().Sites()
	sa := sites.Register("exact.a")
	sb := sites.Register("exact.b")
	sitePart := make([]PartID, sites.Count())
	sitePart[sa], sitePart[sb] = 1, 2
	if err := e.InstallPlan(sitePart, []string{"g", "a", "b"},
		[]PartConfig{DefaultPartConfig(), DefaultPartConfig(), DefaultPartConfig()}); err != nil {
		t.Fatal(err)
	}
	th := e.BorrowThread()
	defer e.ReturnThread(th)
	var a, b memory.Addr
	th.Run(func(tx *Tx) error {
		a = tx.Alloc(sa, 8)
		b = tx.Alloc(sb, 8)
		for i := 0; i < 8; i++ {
			tx.Store(a+memory.Addr(i), 1)
			tx.Store(b+memory.Addr(i), 1)
		}
		return nil
	})
	base := [3]PartStats{e.StatsSnapshot(0), e.StatsSnapshot(1), e.StatsSnapshot(2)}
	var want [3]PartStats
	var buf [8]uint64

	// K committed attempts: 3 loads + 1 store in a, an 8-word load and a
	// 2-word store in b.
	const K = 7
	for i := 0; i < K; i++ {
		th.Run(func(tx *Tx) error {
			tx.Store(a, tx.Load(a)+tx.Load(a+1)+tx.Load(a+2))
			tx.LoadWords(b, buf[:])
			tx.StoreWords(b+4, buf[:2])
			return nil
		})
	}
	want[1].Loads, want[1].Stores, want[1].Commits, want[1].UpdateCommits = 3*K, K, K, K
	want[2].Loads, want[2].Stores, want[2].Commits, want[2].UpdateCommits = 8*K, 2*K, K, K

	// An explicit Abort after 2 loads in a and 1 store in b; the retry
	// reads 1 word of a and commits read-only there.
	attempts := 0
	th.Run(func(tx *Tx) error {
		if attempts++; attempts == 1 {
			tx.Load(a)
			tx.Load(a + 1)
			tx.Store(b, 5)
			tx.Abort()
		}
		tx.Load(a)
		return nil
	})
	want[1].Loads += 3
	want[2].Stores++
	want[1].Aborts[AbortExplicit]++
	want[2].Aborts[AbortExplicit]++
	want[1].Commits++
	want[1].ROCommits++

	// An upgrade restart: the read-only attempt loads 4 words of a and then
	// stores to b — the store aborts before it counts or touches b — and
	// the update-mode retry does both.
	th.Run(func(tx *Tx) error {
		tx.LoadWords(a, buf[:4])
		tx.Store(b, 6)
		return nil
	}, ReadOnly())
	want[1].Loads += 8
	want[1].Aborts[AbortUpgrade]++
	want[2].Stores++
	want[1].Commits++
	want[1].ROCommits++
	want[2].Commits++
	want[2].UpdateCommits++

	// A MaxAttempts exhaustion: three attempts of 2 loads in b, all aborted.
	err := th.Run(func(tx *Tx) error {
		tx.Load(b)
		tx.Load(b + 1)
		tx.Abort()
		return nil
	}, MaxAttempts(3))
	if !errors.Is(err, ErrMaxAttempts) {
		t.Fatalf("err = %v, want ErrMaxAttempts", err)
	}
	want[2].Loads += 6
	want[2].Aborts[AbortExplicit] += 3

	for p := range want {
		got := e.StatsSnapshot(PartID(p)).Sub(base[p])
		w := want[p]
		if got.Loads != w.Loads || got.Stores != w.Stores || got.Commits != w.Commits ||
			got.UpdateCommits != w.UpdateCommits || got.ROCommits != w.ROCommits || got.Aborts != w.Aborts {
			t.Errorf("partition %d:\n got  loads %d stores %d commits %d (update %d, ro %d) aborts %v\n want loads %d stores %d commits %d (update %d, ro %d) aborts %v",
				p, got.Loads, got.Stores, got.Commits, got.UpdateCommits, got.ROCommits, got.Aborts,
				w.Loads, w.Stores, w.Commits, w.UpdateCommits, w.ROCommits, w.Aborts)
		}
	}
}

// TestTortureWriteModes is the write-set-index torture: under the write
// mode (encounter-time write-back, "wb") and each contention manager,
// several workers hammer wide transfers (write sets beyond the
// inline-probe threshold) and full scans (long read-set logs, validated
// and extended under contention) while the total is conserved.
func TestTortureWriteModes(t *testing.T) {
	if testing.Short() {
		t.Skip("torture test skipped in -short mode")
	}
	for _, m := range []struct {
		name string
		cm   CMPolicy
	}{
		{"wb", CMSpin},
		{"wb-suicide", CMSuicide},
	} {
		t.Run(m.name, func(t *testing.T) {
			cfg := DefaultPartConfig()
			cfg.CM = m.cm
			e := newTestEngine(t, cfg)
			e.SetYieldEveryOps(16)
			const cells = 64
			const initVal = 1000
			var base memory.Addr
			setup := e.BorrowThread()
			setup.Run(func(tx *Tx) error {
				base = tx.Alloc(memory.SiteID(0), cells)
				for i := 0; i < cells; i++ {
					tx.Store(base+memory.Addr(i), initVal)
				}
				return nil
			})
			e.ReturnThread(setup)
			const wantTotal = cells * initVal

			stop := make(chan struct{})
			var badSum atomic.Uint64
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
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
						if rng.Intn(4) == 0 {
							// Full scan: the sum is invariant.
							th.Run(func(tx *Tx) error {
								var sum uint64
								for i := 0; i < cells; i++ {
									sum += tx.Load(base + memory.Addr(i))
								}
								if sum != wantTotal {
									badSum.Add(1)
								}
								return nil
							}, ReadOnly())
							continue
						}
						// Wide transfer: move one unit along a 12-cell ring,
						// touching each cell twice (read+write) — a write set
						// past the inline-probe threshold.
						start := rng.Intn(cells)
						th.Run(func(tx *Tx) error {
							for k := 0; k < 12; k++ {
								src := base + memory.Addr((start+k)%cells)
								dst := base + memory.Addr((start+k+1)%cells)
								v := tx.Load(src)
								if v == 0 {
									return nil
								}
								tx.Store(src, v-1)
								tx.Store(dst, tx.Load(dst)+1)
							}
							return nil
						})
					}
				}(int64(w) + 1)
			}
			waitCommits(t, e, 5_000)
			close(stop)
			wg.Wait()
			if n := badSum.Load(); n != 0 {
				t.Fatalf("%d scans observed a broken sum", n)
			}
			check := e.BorrowThread()
			defer e.ReturnThread(check)
			check.Run(func(tx *Tx) error {
				var sum uint64
				for i := 0; i < cells; i++ {
					sum += tx.Load(base + memory.Addr(i))
				}
				if sum != wantTotal {
					t.Fatalf("final sum %d, want %d", sum, wantTotal)
				}
				return nil
			})
		})
	}
}
