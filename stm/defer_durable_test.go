package stm

import (
	"errors"
	"testing"
	"time"
)

// TestDeferDurable pins the option's contract: Run returns at commit with
// the sequence the caller must wait for, Runtime.WaitDurable is that
// wait, and nothing is owed (0) where Run would not have parked either.
func TestDeferDurable(t *testing.T) {
	// No timer sync within the test: the log syncs only when waited for.
	rt, err := New(Config{
		HeapWords: 1 << 16,
		WAL:       &WALConfig{Dir: t.TempDir(), Durability: DurabilitySync, GroupCommitInterval: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	site := rt.RegisterSite("app.cell")
	var a Addr
	if err := rt.Run(func(tx *Tx) error { a = tx.Alloc(site, 1); tx.Store(a, 1); return nil }); err != nil {
		t.Fatal(err)
	}

	seq := uint64(99)
	deferred := DeferDurable(&seq)
	if err := rt.Run(func(tx *Tx) error { tx.Store(a, 2); return nil }, deferred); err != nil {
		t.Fatal(err)
	}
	if st, _ := rt.WALStats(); seq == 0 || seq != st.Seq || st.DurableSeq >= seq {
		t.Fatalf("deferred commit: seq %d, log at %d, durable through %d — want the commit's own sequence, not yet durable", seq, st.Seq, st.DurableSeq)
	}
	first := seq
	if err := rt.Run(func(tx *Tx) error { tx.Store(a, 3); return nil }, deferred); err != nil || seq != first+1 {
		t.Fatalf("second deferred commit: seq %d after %d, err %v", seq, first, err)
	}
	// One wait on the larger sequence covers both.
	if durable, ok := rt.WaitDurable(seq); !ok || durable < seq {
		t.Fatalf("WaitDurable(%d) = %d, %v", seq, durable, ok)
	}

	if err := rt.Run(func(tx *Tx) error { tx.Load(a); return nil }, deferred); err != nil || seq != 0 {
		t.Fatalf("a commit that wrote nothing owes seq %d, err %v; want 0", seq, err)
	}
	seq = 99
	boom := errors.New("boom")
	if err := rt.Run(func(tx *Tx) error { tx.Store(a, 4); return boom }, deferred); err != boom || seq != 0 {
		t.Fatalf("a failed Run owes seq %d, err %v; want 0", seq, err)
	}

	// A dead log refuses the record: ErrNotDurable at once, as without the
	// option, and a wait above the final watermark fails.
	final, _ := rt.WALStats()
	rt.WAL().Abandon()
	err = rt.Run(func(tx *Tx) error { tx.Store(a, 5); return nil }, deferred)
	if !errors.Is(err, ErrNotDurable) || seq != 0 {
		t.Fatalf("commit on a dead log: err %v, seq %d", err, seq)
	}
	if durable, ok := rt.WaitDurable(final.Seq + 1); ok || durable != final.DurableSeq {
		t.Fatalf("WaitDurable above a dead log's watermark = %d, %v; want %d, false", durable, ok, final.DurableSeq)
	}
}

// TestDeferDurableOwesNothingWithoutSync: on a runtime whose Run does not
// park for the log there is no wait to hand over.
func TestDeferDurableOwesNothingWithoutSync(t *testing.T) {
	for _, wal := range []*WALConfig{nil, {Dir: t.TempDir(), Durability: DurabilityAsync}} {
		rt, err := New(Config{HeapWords: 1 << 16, WAL: wal})
		if err != nil {
			t.Fatal(err)
		}
		site, seq := rt.RegisterSite("app.cell"), uint64(99)
		err = rt.Run(func(tx *Tx) error { tx.Store(tx.Alloc(site, 1), 1); return nil }, DeferDurable(&seq))
		if err != nil || seq != 0 {
			t.Fatalf("%v: seq %d, err %v; want 0, nil", rt.Durability(), seq, err)
		}
		if _, ok := rt.WaitDurable(1); ok && wal == nil {
			t.Fatal("WaitDurable succeeded without a log")
		}
		rt.Close()
	}
}
