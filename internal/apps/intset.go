package apps

import (
	"fmt"

	"repro/internal/workload"
	"repro/stm"
	"repro/txds"
)

// IntSetKind selects one of the four integer-set structures.
type IntSetKind int

// The intset structures of the microbenchmarks.
const (
	SetList IntSetKind = iota
	SetSkipList
	SetRBTree
	SetHash
	NumSetKinds
)

func (k IntSetKind) String() string {
	switch k {
	case SetList:
		return "list"
	case SetSkipList:
		return "skiplist"
	case SetRBTree:
		return "rbtree"
	case SetHash:
		return "hashset"
	default:
		return fmt.Sprintf("set(%d)", int(k))
	}
}

// set is the common interface the intset driver uses.
type set interface {
	Contains(tx *stm.Tx, k uint64) bool
	Insert(tx *stm.Tx, k, v uint64) bool
	Remove(tx *stm.Tx, k uint64) (uint64, bool)
	Len(tx *stm.Tx) int
}

// IntSet wraps one structure with its benchmark parameters (key range and
// operation mix), pre-populated to half its key range so inserts and
// removes succeed about half the time (the standard intset methodology).
type IntSet struct {
	rt   *stm.Runtime
	Kind IntSetKind
	Name string
	s    set
	keys workload.KeyGen
	mix  workload.Mix
}

// IntSetSpec declares one structure of a multi-structure application.
type IntSetSpec struct {
	Kind        IntSetKind
	Name        string
	KeyRange    uint64
	UpdateRatio float64
	Buckets     int // hash sets only; default 1024
}

// NewIntSet builds and populates one intset structure.
func NewIntSet(rt *stm.Runtime, spec IntSetSpec) *IntSet {
	is := &IntSet{
		rt:   rt,
		Kind: spec.Kind,
		Name: spec.Name,
		keys: workload.Uniform{N: spec.KeyRange},
		mix:  workload.Mix{UpdateRatio: spec.UpdateRatio},
	}
	rt.Run(func(tx *stm.Tx) error {
		switch spec.Kind {
		case SetList:
			is.s = txds.NewList(tx, rt, spec.Name)
		case SetSkipList:
			is.s = txds.NewSkipList(tx, rt, spec.Name, 17)
		case SetRBTree:
			is.s = txds.NewRBTree(tx, rt, spec.Name)
		case SetHash:
			b := spec.Buckets
			if b == 0 {
				b = 1024
			}
			is.s = txds.NewHashSet(tx, rt, spec.Name, b)
		default:
			panic(fmt.Sprintf("apps: unknown set kind %d", spec.Kind))
		}
		return nil
	})
	// Populate to half occupancy, a few keys per transaction.
	rng := workload.NewRng(uint64(spec.Kind) + 99)
	target := spec.KeyRange / 2
	added := uint64(0)
	for added < target {
		before := added
		rt.Run(func(tx *stm.Tx) error {
			added = before // retries must not double-count
			for i := 0; i < 32 && added < target; i++ {
				k := is.keys.Next(rng)
				if is.s.Insert(tx, k, k) {
					added++
				}
			}
			return nil
		})
	}
	return is
}

// Op runs one operation from the structure's mix.
func (is *IntSet) Op(rng *workload.Rng) {
	k := is.keys.Next(rng)
	switch is.mix.Next(rng) {
	case workload.OpLookup:
		is.rt.Run(func(tx *stm.Tx) error { is.s.Contains(tx, k); return nil }, stm.ReadOnly())
	case workload.OpInsert:
		is.rt.Run(func(tx *stm.Tx) error { is.s.Insert(tx, k, k); return nil })
	case workload.OpRemove:
		is.rt.Run(func(tx *stm.Tx) error { is.s.Remove(tx, k); return nil })
	}
}

// Len returns the current element count.
func (is *IntSet) Len() int {
	var n int
	is.rt.Run(func(tx *stm.Tx) error { n = is.s.Len(tx); return nil })
	return n
}

// Ledger is the long-update-transaction component of the composite
// application: a counter array where a fraction of operations scan the
// whole array and move one unit out of the fullest slot ("rebalance"),
// and the rest are short transfers. Rebalances have array-sized read
// sets, so under invisible reads the transfer churn keeps killing them
// on validation — this is the partition that wants visible reads with
// reader priority, while the set structures next to it want invisible
// reads. No global configuration satisfies both.
type Ledger struct {
	rt            *stm.Runtime
	arr           *txds.CounterArray
	slots         int
	rebalanceFrac float64
}

// LedgerSpec sizes the ledger component.
type LedgerSpec struct {
	Slots         int
	RebalanceFrac float64
}

// NewLedger builds the ledger.
func NewLedger(rt *stm.Runtime, name string, spec LedgerSpec) *Ledger {
	l := &Ledger{rt: rt, slots: spec.Slots, rebalanceFrac: spec.RebalanceFrac}
	rt.Run(func(tx *stm.Tx) error {
		l.arr = txds.NewCounterArray(tx, rt, name, spec.Slots, 100)
		return nil
	})
	return l
}

// Op runs one ledger operation.
func (l *Ledger) Op(rng *workload.Rng) {
	if rng.Float64() < l.rebalanceFrac {
		to := rng.Intn(l.slots)
		l.rt.Run(func(tx *stm.Tx) error {
			maxI, maxV := 0, uint64(0)
			for i := 0; i < l.slots; i++ {
				if v := l.arr.Get(tx, i); v > maxV {
					maxV, maxI = v, i
				}
			}
			if maxI != to && maxV > 0 {
				l.arr.Transfer(tx, maxI, to, 1)
			}
			return nil
		})
		return
	}
	from, to := rng.Intn(l.slots), rng.Intn(l.slots)
	l.rt.Run(func(tx *stm.Tx) error { l.arr.Transfer(tx, from, to, 1); return nil })
}

// Total returns the conserved array sum (invariant check).
func (l *Ledger) Total() uint64 {
	var s uint64
	l.rt.Run(func(tx *stm.Tx) error { s = l.arr.Sum(tx); return nil }, stm.ReadOnly())
	return s
}

// ExpectedTotal returns the invariant value.
func (l *Ledger) ExpectedTotal() uint64 { return uint64(l.slots) * 100 }

// MultiSet is the fig2 application: several structures with different
// characteristics living in one program — read-mostly trees, churning
// sets, and a ledger with long update transactions — so that no single
// global STM configuration suits all of them.
type MultiSet struct {
	Sets   []*IntSet
	Ledger *Ledger // optional
}

// MultiSetConfig declares the composite application.
type MultiSetConfig struct {
	Specs []IntSetSpec
	// Ledger, when non-nil, adds the long-update-transaction component.
	Ledger *LedgerSpec
}

// DefaultMultiSetSpecs returns the heterogeneous four-structure workload:
// a short contended list with heavy updates, a mid-size skip list, a
// large read-mostly red-black tree, and a hash set with moderate churn.
func DefaultMultiSetSpecs() []IntSetSpec {
	return []IntSetSpec{
		{Kind: SetList, Name: "intset.list", KeyRange: 256, UpdateRatio: 0.50},
		{Kind: SetSkipList, Name: "intset.skip", KeyRange: 4096, UpdateRatio: 0.20},
		{Kind: SetRBTree, Name: "intset.tree", KeyRange: 16384, UpdateRatio: 0.02},
		{Kind: SetHash, Name: "intset.hash", KeyRange: 16384, UpdateRatio: 0.50, Buckets: 2048},
	}
}

// DefaultLedgerSpec returns the fig2/table1 ledger sizing (10% rebalance
// share puts invisible reads well past the fig3 crossover).
func DefaultLedgerSpec() LedgerSpec {
	return LedgerSpec{Slots: 1024, RebalanceFrac: 0.10}
}

// NewMultiSet builds all structures of the composite application.
func NewMultiSet(rt *stm.Runtime, specs []IntSetSpec) *MultiSet {
	return NewMultiSetApp(rt, MultiSetConfig{Specs: specs})
}

// NewMultiSetApp builds the composite application, including the ledger
// when configured.
func NewMultiSetApp(rt *stm.Runtime, cfg MultiSetConfig) *MultiSet {
	m := &MultiSet{}
	for _, sp := range cfg.Specs {
		m.Sets = append(m.Sets, NewIntSet(rt, sp))
	}
	if cfg.Ledger != nil {
		m.Ledger = NewLedger(rt, "intset.ledger", *cfg.Ledger)
	}
	return m
}

// Op picks a component uniformly and runs one of its operations — every
// transaction touches exactly one structure, as in the paper's
// per-data-structure workload model.
func (m *MultiSet) Op(rng *workload.Rng) {
	n := len(m.Sets)
	if m.Ledger != nil {
		n++
	}
	i := rng.Intn(n)
	if i < len(m.Sets) {
		m.Sets[i].Op(rng)
		return
	}
	m.Ledger.Op(rng)
}
