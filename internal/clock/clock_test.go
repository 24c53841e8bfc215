package clock

import "testing"

func TestGlobalCounterSemantics(t *testing.T) {
	tb := New(ModeGlobal, 4)
	if tb.Mode() != ModeGlobal {
		t.Fatalf("mode = %v", tb.Mode())
	}
	if got := tb.Begin(); got != InitialStamp {
		t.Fatalf("begin = %d", got)
	}
	// All partitions read the same counter.
	if tb.Now(0) != tb.Now(3) {
		t.Fatal("global counter differs across partitions")
	}
	// A commit over several partitions ticks once and shares the version.
	wv := make([]uint64, 2)
	tb.Commit([]uint32{0, 2}, wv)
	if wv[0] != InitialStamp+1 || wv[1] != InitialStamp+1 {
		t.Fatalf("wv = %v", wv)
	}
	if tb.Ceiling() != InitialStamp+1 {
		t.Fatalf("ceiling = %d", tb.Ceiling())
	}
	s := tb.Stats()
	if s.SharedRMWs != 1 || len(s.Parts) != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPartitionLocalSemantics(t *testing.T) {
	tb := New(ModePartitionLocal, 3)
	if tb.Mode() != ModePartitionLocal {
		t.Fatalf("mode = %v", tb.Mode())
	}
	ep0 := tb.Epoch()

	// Single-partition commits tick only their own counter and leave the
	// epoch alone.
	wv := make([]uint64, 1)
	tb.Commit([]uint32{1}, wv)
	if wv[0] != InitialStamp+1 {
		t.Fatalf("wv = %d", wv[0])
	}
	if tb.Now(1) != InitialStamp+1 || tb.Now(0) != InitialStamp || tb.Now(2) != InitialStamp {
		t.Fatalf("counters = %d %d %d", tb.Now(0), tb.Now(1), tb.Now(2))
	}
	if tb.Epoch() != ep0 {
		t.Fatal("single-partition commit bumped the epoch")
	}

	// A cross-partition commit ticks each written counter and the epoch.
	wv2 := make([]uint64, 2)
	tb.Commit([]uint32{0, 1}, wv2)
	if wv2[0] != InitialStamp+1 || wv2[1] != InitialStamp+2 {
		t.Fatalf("wv2 = %v", wv2)
	}
	if tb.Epoch() != ep0+1 {
		t.Fatalf("epoch = %d, want %d", tb.Epoch(), ep0+1)
	}

	s := tb.Stats()
	if s.CrossCommits != 1 || s.SharedRMWs != 1 || s.LocalTicks != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Parts[1] != InitialStamp+2 {
		t.Fatalf("parts = %v", s.Parts)
	}
}

func TestResizeRebasesAtCeiling(t *testing.T) {
	tb := New(ModePartitionLocal, 2)
	wv := make([]uint64, 1)
	for i := 0; i < 5; i++ {
		tb.Commit([]uint32{1}, wv)
	}
	ceil := tb.Ceiling()
	if ceil != InitialStamp+5 {
		t.Fatalf("ceiling = %d", ceil)
	}
	tb.Resize(4)
	for p := uint32(0); p < 4; p++ {
		if got := tb.Now(p); got != ceil {
			t.Fatalf("partition %d counter %d after resize, want %d", p, got, ceil)
		}
	}
	// Shrinking must not move time backwards either.
	tb.Resize(1)
	if got := tb.Now(0); got < ceil {
		t.Fatalf("counter %d after shrink, want >= %d", got, ceil)
	}
}

func TestAdvanceIsMonotoneEverywhere(t *testing.T) {
	for _, mode := range []Mode{ModeGlobal, ModePartitionLocal} {
		tb := New(mode, 3)
		tb.Advance(1 << 30)
		for p := uint32(0); p < 3; p++ {
			if got := tb.Now(p); got != InitialStamp+1<<30 {
				t.Fatalf("%v: partition %d = %d", mode, p, got)
			}
		}
		if tb.Ceiling() < 1<<30 {
			t.Fatalf("%v: ceiling = %d", mode, tb.Ceiling())
		}
	}
}

func TestMigrationFloor(t *testing.T) {
	tb := NewAt(ModePartitionLocal, 2, 42)
	if tb.Now(0) != 42 || tb.Now(1) != 42 {
		t.Fatalf("counters = %d %d", tb.Now(0), tb.Now(1))
	}
	// The start-at-InitialStamp invariant is asserted where counters are
	// created: a floor below it must panic.
	defer func() {
		if recover() == nil {
			t.Fatal("floor 0 accepted")
		}
	}()
	NewAt(ModeGlobal, 1, 0)
}

func TestModeString(t *testing.T) {
	if ModeGlobal.String() != "global" || ModePartitionLocal.String() != "partition-local" {
		t.Fatal("mode strings")
	}
}

// TestSnapshotPinningProperties checks the two contracts snapshot
// pinning (Run's Snapshot option) relies on, for both time bases:
// a Begin/Now sample covers every version already published (coverage),
// and no sequence of commits ever moves a counter below a pin taken
// earlier (monotonicity) — any commit after the pin lands strictly above
// it.
func TestSnapshotPinningProperties(t *testing.T) {
	for _, mode := range []Mode{ModeGlobal, ModePartitionLocal} {
		tb := New(mode, 3)
		wv := make([]uint64, 1)
		// Publish some versions in partition 1.
		for i := 0; i < 5; i++ {
			tb.Commit([]uint32{1}, wv)
		}
		published := wv[0]
		// Coverage: a pin taken now is at or above everything published.
		pin := tb.Now(1)
		if pin < published {
			t.Fatalf("%v: pin %d below published version %d", mode, pin, published)
		}
		if g := tb.Begin(); mode == ModeGlobal && g < published {
			t.Fatalf("%v: Begin %d below published version %d", mode, g, published)
		}
		// Monotonicity: every later commit is strictly above the pin, and
		// the pinned timeline never reads below the pin afterwards.
		for i := 0; i < 5; i++ {
			tb.Commit([]uint32{1}, wv)
			if wv[0] <= pin {
				t.Fatalf("%v: commit version %d not above pin %d", mode, wv[0], pin)
			}
			if now := tb.Now(1); now < pin {
				t.Fatalf("%v: timeline moved backwards: %d < pin %d", mode, now, pin)
			}
		}
		// Commits in other partitions never disturb the pinned timeline's
		// floor either.
		tb.Commit([]uint32{2}, wv)
		if now := tb.Now(1); now < pin {
			t.Fatalf("%v: foreign commit dragged timeline below pin", mode)
		}
	}
}
