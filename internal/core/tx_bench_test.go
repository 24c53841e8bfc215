package core

import (
	"fmt"
	"testing"

	"repro/internal/memory"
)

// BenchmarkWriteSetProbe compares the transaction's hybrid write-set
// lookup (inline linear probe for small sets, generation-stamped
// open-addressed index beyond) against the Go map the write set used to
// carry. Acceptance: the hybrid must at least match the map on small sets
// and beat it on large ones.
func BenchmarkWriteSetProbe(b *testing.B) {
	for _, n := range []int{4, 8, 64, 1024} {
		keys := make([]memory.Addr, n)
		for i := range keys {
			keys[i] = memory.Addr(i*8 + 16)
		}
		b.Run(fmt.Sprintf("table/%d", n), func(b *testing.B) {
			tx := &Tx{}
			tx.wsIdx.reset()
			for i, k := range keys {
				if en, fresh := tx.wsEntry(k); fresh {
					en.val = uint64(i)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tx.wsFind(keys[i%n]) < 0 {
					b.Fatal("missing key")
				}
			}
		})
		b.Run(fmt.Sprintf("gomap/%d", n), func(b *testing.B) {
			m := make(map[memory.Addr]int, 64)
			for i, k := range keys {
				m[k] = i
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := m[keys[i%n]]; !ok {
					b.Fatal("missing key")
				}
			}
		})
	}
}

// BenchmarkRepeatedReadTx measures a transaction that sweeps a fixed
// footprint of 64 words `passes` times and writes nothing. It runs as an
// update Run, which logs every read (a ReadOnly() first attempt logs
// none): the read set is an append log, so each load adds one entry and
// per-load cost stays flat as the passes multiply.
func BenchmarkRepeatedReadTx(b *testing.B) {
	const words = 64
	e := newTestEngine(b, DefaultPartConfig())
	th := e.BorrowThread()
	defer e.ReturnThread(th)
	var base memory.Addr
	th.Run(func(tx *Tx) error {
		base = tx.Alloc(memory.SiteID(0), words)
		for i := 0; i < words; i++ {
			tx.Store(base+memory.Addr(i), uint64(i))
		}
		return nil
	})
	for _, passes := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("passes=%d", passes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				th.Run(func(tx *Tx) error {
					var sink uint64
					for p := 0; p < passes; p++ {
						for j := 0; j < words; j++ {
							sink += tx.Load(base + memory.Addr(j))
						}
					}
					_ = sink
					return nil
				})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*passes*words), "ns/load")
		})
	}
}

// BenchmarkWideWriteTx measures update transactions across write-set
// sizes spanning the inline-probe and indexed regimes, without and with a
// snapshot store attached — the latter prices the per-partition batched
// history publication on the widest commits.
func BenchmarkWideWriteTx(b *testing.B) {
	modes := []struct {
		name string
		mut  func(*PartConfig)
	}{
		{"wb", func(c *PartConfig) {}},
		{"wb-hist", func(c *PartConfig) { c.HistCap = 4096 }},
	}
	for _, m := range modes {
		for _, n := range []int{4, 64, 512} {
			b.Run(fmt.Sprintf("%s/writes=%d", m.name, n), func(b *testing.B) {
				cfg := DefaultPartConfig()
				m.mut(&cfg)
				e := newTestEngine(b, cfg)
				th := e.BorrowThread()
				defer e.ReturnThread(th)
				var base memory.Addr
				th.Run(func(tx *Tx) error {
					base = tx.Alloc(memory.SiteID(0), n)
					for i := 0; i < n; i++ {
						tx.Store(base+memory.Addr(i), 0)
					}
					return nil
				})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					th.Run(func(tx *Tx) error {
						for j := 0; j < n; j++ {
							tx.Store(base+memory.Addr(j), uint64(i+j))
						}
						return nil
					})
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/store")
			})
		}
	}
}

// BenchmarkSpinWait pins the cost of one spin quantum so backoff tuning
// has a number to reason about.
func BenchmarkSpinWait(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spinWait(64)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/quantum")
}
