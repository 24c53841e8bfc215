package stm_test

import (
	"testing"

	"repro/stm"
)

// FuzzLoadStoreWords differentially tests the multi-word primitives
// against the per-word escape hatch: a fuzzed op sequence runs inside
// one transaction over a fixed region while a shadow array tracks the
// expected contents (per-word semantics), every multi-word load must
// agree with the shadow — including read-after-write — and the committed
// state must equal the shadow afterwards. The first input byte selects
// the write mode so WB, WT and CTL all get coverage.
func FuzzLoadStoreWords(f *testing.F) {
	f.Add([]byte{0, 2, 10, 4, 42, 3, 8, 8, 7, 1, 5, 0, 0})
	f.Add([]byte{1, 2, 0, 16, 1, 4, 0, 60, 0, 2, 60, 8, 9})
	f.Add([]byte{2, 0, 63, 0, 2, 63, 4, 5, 3, 0, 64, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const region = 64
		cfg := stm.DefaultPartConfig()
		switch data[0] % 3 {
		case 1:
			cfg.Write = stm.WriteThrough
		case 2:
			cfg.Acquire = stm.CommitTime
		}
		cfg.GranShift = uint(data[0]>>2) % 4 // 1..8 words per orec
		data = data[1:]
		rt := stm.MustNew(stm.Config{HeapWords: 1 << 14, Default: &cfg})
		site := rt.RegisterSite("fuzz.words")
		var base stm.Addr
		shadow := make([]uint64, region)
		rt.Run(func(tx *stm.Tx) error {
			base = tx.Alloc(site, region)
			for i := range shadow {
				shadow[i] = uint64(i) * 31
			}
			tx.StoreWords(base, shadow)
			return nil
		})

		rt.Run(func(tx *stm.Tx) error {
			for i := 0; i+3 < len(data); i += 4 {
				op := data[i] % 5
				off := int(data[i+1]) % region
				n := 1 + int(data[i+2])%16
				if off+n > region {
					n = region - off
				}
				val := uint64(data[i+3]) + uint64(i)<<8
				switch op {
				case 0: // per-word store
					tx.Store(base+stm.Addr(off), val)
					shadow[off] = val
				case 1: // multi-word store
					src := make([]uint64, n)
					for j := range src {
						src[j] = val + uint64(j)
					}
					tx.StoreWords(base+stm.Addr(off), src)
					copy(shadow[off:off+n], src)
				case 2: // per-word load
					if got := tx.Load(base + stm.Addr(off)); got != shadow[off] {
						t.Fatalf("Load(%d) = %d, want %d", off, got, shadow[off])
					}
				case 3: // multi-word load
					dst := make([]uint64, n)
					tx.LoadWords(base+stm.Addr(off), dst)
					for j := range dst {
						if dst[j] != shadow[off+j] {
							t.Fatalf("LoadWords(%d)[%d] = %d, want %d", off, j, dst[j], shadow[off+j])
						}
					}
				case 4: // range scan
					tx.LoadRange(base+stm.Addr(off), n, func(j int, v uint64) bool {
						if v != shadow[off+j] {
							t.Fatalf("LoadRange(%d)[%d] = %d, want %d", off, j, v, shadow[off+j])
						}
						return true
					})
				}
			}
			return nil
		})

		// Committed state must match the shadow, read both ways.
		rt.Run(func(tx *stm.Tx) error {
			dst := make([]uint64, region)
			tx.LoadWords(base, dst)
			for i := range dst {
				if dst[i] != shadow[i] {
					t.Fatalf("committed LoadWords[%d] = %d, want %d", i, dst[i], shadow[i])
				}
				if got := tx.Load(base + stm.Addr(i)); got != shadow[i] {
					t.Fatalf("committed Load(%d) = %d, want %d", i, got, shadow[i])
				}
			}
			return nil
		}, stm.ReadOnly())
	})
}
