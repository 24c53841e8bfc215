package core

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/memory"
)

func cmConfig(p CMPolicy) PartConfig {
	cfg := DefaultPartConfig()
	cfg.CM = p
	cfg.LockBits = 8
	return cfg
}

// TestCMPoliciesProgress checks that both contention-management policies
// let a contended counter workload finish with the exact count (no lost
// updates, no livelock).
func TestCMPoliciesProgress(t *testing.T) {
	for _, pol := range []CMPolicy{CMSuicide, CMSpin} {
		t.Run(pol.String(), func(t *testing.T) {
			e := newTestEngine(t, cmConfig(pol))
			setup := e.BorrowThread()
			var a memory.Addr
			setup.Run(func(tx *Tx) error {
				a = tx.Alloc(memory.DefaultSite, 1)
				tx.Store(a, 0)
				return nil
			})
			e.ReturnThread(setup)
			const workers, perW = 6, 1500
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := e.BorrowThread()
					defer e.ReturnThread(th)
					for i := 0; i < perW; i++ {
						th.Run(func(tx *Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
					}
				}()
			}
			wg.Wait()
			check := e.BorrowThread()
			check.Run(func(tx *Tx) error {
				if got := tx.Load(a); got != workers*perW {
					t.Errorf("counter = %d, want %d", got, workers*perW)
				}
				return nil
			})
		})
	}
}

// TestBackoffCMRecordsWaitCycles verifies that the waiting manager backs
// off before it gives up and accounts its waiting in the partition stats:
// against a lock its owner keeps, a CMSpin reader stalls exactly
// spinBudget times (each a jittered spinWait pause) and then aborts,
// while a CMSuicide reader aborts at once without a wait cycle.
func TestBackoffCMRecordsWaitCycles(t *testing.T) {
	for _, pol := range []CMPolicy{CMSpin, CMSuicide} {
		t.Run(pol.String(), func(t *testing.T) {
			e := newTestEngine(t, cmConfig(pol))
			setup := e.BorrowThread()
			var a memory.Addr
			setup.Run(func(tx *Tx) error {
				a = tx.Alloc(memory.DefaultSite, 1)
				tx.Store(a, 0)
				return nil
			})
			e.ReturnThread(setup)

			held, release, done := make(chan struct{}), make(chan struct{}), make(chan error)
			go func() {
				owner := e.BorrowThread()
				defer e.ReturnThread(owner)
				first := true
				done <- owner.Run(func(tx *Tx) error {
					tx.Store(a, 1) // encounter-time: the orec is locked from here
					if first {
						first = false
						close(held)
						<-release
					}
					return nil
				})
			}()
			<-held
			waits := func() uint64 { return e.StatsSnapshot(GlobalPartition).WaitCycles }
			w0 := waits()
			th := e.BorrowThread()
			var mae *MaxAttemptsError
			err := th.Run(func(tx *Tx) error { tx.Load(a); return nil }, MaxAttempts(1))
			e.ReturnThread(th)
			if !errors.As(err, &mae) || mae.Cause != AbortLockedOnRead {
				t.Fatalf("reader of a held lock: %v, want %v", err, AbortLockedOnRead)
			}
			want := uint64(0)
			if pol == CMSpin {
				want = spinBudget
			}
			if got := waits() - w0; got != want {
				t.Fatalf("reader of a held lock recorded %d wait cycles, want %d", got, want)
			}
			close(release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVisibleReaderArbitration exercises writer-vs-reader policies on a
// visible-reads partition under contention.
func TestVisibleReaderArbitration(t *testing.T) {
	for _, rp := range []ReaderPolicy{WriterKillsReaders, WriterYieldsToReaders} {
		t.Run(rp.String(), func(t *testing.T) {
			cfg := DefaultPartConfig()
			cfg.Read = VisibleReads
			cfg.ReaderCM = rp
			cfg.LockBits = 4 // few orecs: force reader/writer collisions
			e := newTestEngine(t, cfg)
			setup := e.BorrowThread()
			var base memory.Addr
			const slots = 16
			setup.Run(func(tx *Tx) error {
				base = tx.Alloc(memory.DefaultSite, slots)
				for i := 0; i < slots; i++ {
					tx.Store(base+memory.Addr(i), 5)
				}
				return nil
			})
			e.ReturnThread(setup)

			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					th := e.BorrowThread()
					defer e.ReturnThread(th)
					for i := 0; i < 1000; i++ {
						if id%2 == 0 {
							th.Run(func(tx *Tx) error {
								// Sum must always be slots*5.
								var s uint64
								for j := 0; j < slots; j++ {
									s += tx.Load(base + memory.Addr(j))
								}
								if s != slots*5 {
									t.Errorf("reader saw sum %d", s)
								}
								return nil
							})
						} else {
							th.Run(func(tx *Tx) error {
								j := memory.Addr(i % (slots - 1))
								v := tx.Load(base + j)
								if v == 0 {
									return nil
								}
								tx.Store(base+j, v-1)
								tx.Store(base+j+1, tx.Load(base+j+1)+1)
								return nil
							})
						}
					}
				}(w)
			}
			wg.Wait()

			// Reader bits must all be clear when no transaction runs.
			ps := e.Partition(GlobalPartition).loadState()
			for i := range ps.table.orecs {
				if l := ps.table.orecs[i].lock.Load(); isLocked(l) {
					t.Fatalf("orec %d leaked lock %x", i, l)
				}
			}
			for i := range ps.table.readers {
				if r := ps.table.readers[i].Load(); r != 0 {
					t.Fatalf("reader word %d leaked bits %b", i, r)
				}
			}
		})
	}
}

// TestVisibleReadsRegisterPerStripe pins the reader-bitmap striping: a
// visible read registers once per readerStripe consecutive orecs, every
// bit an attempt set is clear once it commits or aborts, and a writer
// meets the readers of its orec's whole stripe, not of its orec alone.
func TestVisibleReadsRegisterPerStripe(t *testing.T) {
	cfg := DefaultPartConfig()
	cfg.Read = VisibleReads
	cfg.ReaderCM = WriterYieldsToReaders
	cfg.GranShift = 0
	e := newTestEngine(t, cfg)
	ps := e.Partition(GlobalPartition).loadState()
	if got, want := len(ps.table.readers), len(ps.table.orecs)/8; got != want {
		t.Fatalf("%d reader words for %d orecs, want %d", got, len(ps.table.orecs), want)
	}
	if small := newOrecTable(2, 0, true); len(small.readers) != 1 || small.readersOf(3) != &small.readers[0] {
		t.Fatalf("a 4-orec table has %d reader words, want 1 covering every orec", len(small.readers))
	}
	held := func() int {
		n := 0
		for i := range ps.table.readers {
			if ps.table.readers[i].Load() != 0 {
				n++
			}
		}
		return n
	}
	reader, writer := e.BorrowThread(), e.BorrowThread()
	defer e.ReturnThread(reader)
	defer e.ReturnThread(writer)
	const words = 1024
	var base memory.Addr
	writer.Run(func(tx *Tx) error {
		base = (tx.Alloc(memory.DefaultSite, words+8) + 7) &^ 7 // stripe-aligned
		return nil
	})
	scan := func(tx *Tx) {
		for i := 0; i < words; i++ {
			tx.Load(base + memory.Addr(i))
		}
	}

	var vreads int
	if err := reader.Run(func(tx *Tx) error {
		scan(tx)
		vreads = len(tx.vreads)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if vreads != words/8 {
		t.Fatalf("scan of %d words registered %d times, want %d", words, vreads, words/8)
	}
	if n := held(); n != 0 {
		t.Fatalf("%d reader words still set after commit", n)
	}
	attempt := 0
	if err := reader.Run(func(tx *Tx) error {
		if attempt++; attempt == 1 {
			scan(tx)
			tx.Abort()
		}
		if n := held(); n != 0 {
			t.Errorf("%d reader words still set after an aborted attempt", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// A live visible read of base holds stripe 0. Under
	// WriterYieldsToReaders a writer to base+1 (same stripe, other orec)
	// waits out its spin budget and yields; a writer to base+8 (next
	// stripe) commits at once.
	registered, release, done := make(chan struct{}), make(chan struct{}), make(chan error)
	go func() {
		first := true
		done <- reader.Run(func(tx *Tx) error {
			tx.Load(base)
			if first {
				first = false
				close(registered)
				<-release
			}
			return nil
		})
	}()
	<-registered
	waits := func() uint64 { return e.StatsSnapshot(GlobalPartition).WaitCycles }
	w0 := waits()
	var mae *MaxAttemptsError
	err := writer.Run(func(tx *Tx) error { tx.Store(base+1, 1); return nil }, MaxAttempts(1))
	if !errors.As(err, &mae) || mae.Cause != AbortReaderWall {
		t.Fatalf("writer in the reader's stripe: %v, want %v", err, AbortReaderWall)
	}
	w1 := waits()
	if w1 == w0 {
		t.Fatal("writer in the reader's stripe yielded without waiting")
	}
	if err := writer.Run(func(tx *Tx) error { tx.Store(base+8, 1); return nil }, MaxAttempts(1)); err != nil {
		t.Fatalf("writer in the next stripe: %v", err)
	}
	if w2 := waits(); w2 != w1 {
		t.Fatalf("writer in the next stripe waited %d cycles", w2-w1)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := held(); n != 0 {
		t.Fatalf("%d reader words still set after the reader committed", n)
	}
}

func TestKillFlagAbortsVictim(t *testing.T) {
	e := newTestEngine(t, DefaultPartConfig())
	th := e.BorrowThread()
	var a memory.Addr
	th.Run(func(tx *Tx) error {
		a = tx.Alloc(memory.DefaultSite, 1)
		tx.Store(a, 0)
		return nil
	})
	attempts := 0
	th.Run(func(tx *Tx) error {
		attempts++
		if attempts == 1 {
			th.kill() // simulate another thread's CM decision
		}
		tx.Load(a) // polls the flag
		return nil
	})
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
	s := e.StatsSnapshot(GlobalPartition)
	if s.Aborts[AbortKilled] != 1 {
		t.Fatalf("killed aborts = %d, want 1", s.Aborts[AbortKilled])
	}
}

func TestOrecEncoding(t *testing.T) {
	f := func(ts uint64) bool {
		ts >>= 1 // version space is 63 bits
		w := versionWord(ts)
		return !isLocked(w) && versionOf(w) == ts
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(slot uint8) bool {
		s := int(slot % MaxThreads)
		w := lockWordFor(s)
		return isLocked(w) && lockOwner(w) == s
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOrecTableMapping(t *testing.T) {
	tbl := newOrecTable(4, 2, false) // 16 orecs, 4 words per orec
	if len(tbl.orecs) != 16 {
		t.Fatalf("orecs = %d", len(tbl.orecs))
	}
	// Words 0..3 share an orec; word 4 uses the next one.
	if tbl.of(0) != tbl.of(3) {
		t.Fatal("granularity grouping broken")
	}
	if tbl.of(3) == tbl.of(4) {
		t.Fatal("adjacent groups collide")
	}
	// Index wraps at table size.
	if tbl.indexOf(0) != tbl.indexOf(memory.Addr(16*4)) {
		t.Fatal("mask wrap broken")
	}
}

func TestConfigNormalize(t *testing.T) {
	c := PartConfig{LockBits: 1, GranShift: 40}
	n := c.Normalize()
	if n.LockBits < 2 || n.LockBits > 24 {
		t.Errorf("LockBits = %d", n.LockBits)
	}
	if n.GranShift > 16 {
		t.Errorf("GranShift = %d", n.GranShift)
	}
	if DefaultPartConfig().String() == "" {
		t.Error("empty config string")
	}
}

func TestEnumStrings(t *testing.T) {
	// Exhaustive String() coverage, including out-of-range values.
	for _, s := range []string{
		InvisibleReads.String(), VisibleReads.String(), ReadMode(9).String(),
		CMSuicide.String(), CMSpin.String(), CMPolicy(99).String(),
		WriterKillsReaders.String(), WriterYieldsToReaders.String(), ReaderPolicy(9).String(),
	} {
		if s == "" {
			t.Fatal("empty enum string")
		}
	}
	for c := AbortCause(0); c <= AbortExplicit; c++ {
		if c.String() == "" {
			t.Fatalf("empty string for cause %d", c)
		}
	}
	if AbortCause(200).String() == "" {
		t.Fatal("empty string for unknown cause")
	}
}

// TestVisibleWriterKillsContention: visible reads under writer-kills, with
// every transaction reading and then writing the same word — each writer
// kills the other readers it meets, and no increment may be lost.
func TestVisibleWriterKillsContention(t *testing.T) {
	cfg := DefaultPartConfig()
	cfg.Read = VisibleReads
	cfg.ReaderCM = WriterKillsReaders
	e := newTestEngine(t, cfg)
	setup := e.BorrowThread()
	var a memory.Addr
	setup.Run(func(tx *Tx) error {
		a = tx.Alloc(memory.DefaultSite, 1)
		tx.Store(a, 0)
		return nil
	})
	e.ReturnThread(setup)
	var wg sync.WaitGroup
	const workers, perW = 8, 800
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := e.BorrowThread()
			defer e.ReturnThread(th)
			for i := 0; i < perW; i++ {
				th.Run(func(tx *Tx) error { tx.Store(a, tx.Load(a)+1); return nil })
			}
		}()
	}
	wg.Wait()
	check := e.BorrowThread()
	check.Run(func(tx *Tx) error {
		if got := tx.Load(a); got != workers*perW {
			t.Errorf("counter = %d, want %d", got, workers*perW)
		}
		return nil
	})
}
