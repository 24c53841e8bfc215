package core

// spinQuantum is the unit of calibrated busy-waiting. It is deliberately
// an empty noinline function: the compiler deletes an empty counted loop
// outright (which once silently turned randomized pauses into no-ops),
// but it cannot elide a call it is forbidden to inline, so each iteration
// of spinWait costs a real call-return round trip (~1-2ns).
//
//go:noinline
func spinQuantum() {}

// spinWait busy-waits for n spin quanta without touching shared memory;
// it is the pause primitive of stall's on-CPU phase and the engine's
// between-attempt backoff. Unlike runtime.Gosched it never enters the
// scheduler, so short pauses stay short, and unlike a shared volatile sink
// it is free of data races under the race detector.
func spinWait(n uint64) {
	for i := uint64(0); i < n; i++ {
		spinQuantum()
	}
}
