package apps

import (
	"sync"
	"testing"

	"repro/internal/workload"
	"repro/stm"
)

func newRT(t testing.TB, yield uint64) *stm.Runtime {
	t.Helper()
	rt, err := stm.New(stm.Config{HeapWords: 1 << 22, BlockShift: 10, YieldEveryOps: yield})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestItemPacking(t *testing.T) {
	cases := []struct{ total, free, price uint64 }{
		{0, 0, 0},
		{100, 100, 499},
		{0xFFFFFF, 0xFFFFFF, 0xFFFF},
		{1, 0, 50},
	}
	for _, c := range cases {
		tt, f, p := unpackItem(packItem(c.total, c.free, c.price))
		if tt != c.total || f != c.free || p != c.price {
			t.Fatalf("pack/unpack(%v) = (%d,%d,%d)", c, tt, f, p)
		}
	}
}

func TestVacationSequential(t *testing.T) {
	rt := newRT(t, 0)
	cfg := VacationConfig{
		ItemsPerTable:       64,
		Customers:           32,
		InitialSeats:        5,
		QueriesPerTx:        3,
		UpdateTableRatio:    0.05,
		DeleteCustomerRatio: 0.05,
	}
	v := NewVacation(rt, cfg)
	rng := workload.NewRng(2)
	booked := 0
	for i := 0; i < 2000; i++ {
		if v.Op(rng) == "reserve" {
			booked++
		}
	}
	if booked == 0 {
		t.Fatal("no reservations made")
	}
	if msg := v.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestVacationConcurrentInvariants(t *testing.T) {
	rt := newRT(t, 8)
	cfg := VacationConfig{
		ItemsPerTable:       128,
		Customers:           64,
		InitialSeats:        4,
		QueriesPerTx:        4,
		UpdateTableRatio:    0.02,
		DeleteCustomerRatio: 0.05,
	}
	v := NewVacation(rt, cfg)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := workload.NewRng(seed)
			for i := 0; i < 1500; i++ {
				v.Op(rng)
			}
		}(uint64(w) + 10)
	}
	wg.Wait()
	if msg := v.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestVacationPartitions(t *testing.T) {
	rt := newRT(t, 0)
	rt.StartProfiling()
	cfg := DefaultVacationConfig()
	cfg.ItemsPerTable = 64
	cfg.Customers = 32
	v := NewVacation(rt, cfg)
	rng := workload.NewRng(4)
	for i := 0; i < 500; i++ {
		v.Op(rng)
	}
	plan, err := rt.StopProfilingAndPartition()
	if err != nil {
		t.Fatal(err)
	}
	// Expected components: flights, cars, rooms, customers-tree+record+resv
	// (the customer record holds pointers to reservation nodes, and the
	// tree's value IS the record address but stored as a plain value; the
	// record→resv pointer links record and resv sites; the tree's root/node
	// sites link to each other) → at least 5 partitions incl. global.
	if got := plan.NumPartitions(); got < 5 {
		t.Fatalf("NumPartitions = %d, want >= 5\n%s", got, plan.Describe(rt.Sites()))
	}
	if msg := v.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestBankConservationConcurrent(t *testing.T) {
	rt := newRT(t, 8)
	cfg := BankConfig{Accounts: 128, InitialBalance: 500, AuditRatio: 0.1, MaxTransfer: 30}
	b := NewBank(rt, cfg)
	var wg sync.WaitGroup
	audits := make(chan uint64, 10000)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := workload.NewRng(seed)
			for i := 0; i < 2000; i++ {
				if b.Op(rng, cfg) == "audit" {
					// Op discards the audit result; re-audit to record it.
					audits <- b.Audit()
				}
			}
		}(uint64(w) * 7)
	}
	wg.Wait()
	close(audits)
	want := b.ExpectedTotal()
	for got := range audits {
		if got != want {
			t.Fatalf("audit saw %d, want %d", got, want)
		}
	}
	if msg := b.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestIntSetPopulation(t *testing.T) {
	rt := newRT(t, 0)
	for _, spec := range []IntSetSpec{
		{Kind: SetList, Name: "tl.list", KeyRange: 64, UpdateRatio: 0.5},
		{Kind: SetSkipList, Name: "tl.skip", KeyRange: 128, UpdateRatio: 0.2},
		{Kind: SetRBTree, Name: "tl.tree", KeyRange: 256, UpdateRatio: 0.1},
		{Kind: SetHash, Name: "tl.hash", KeyRange: 256, UpdateRatio: 0.5, Buckets: 32},
	} {
		is := NewIntSet(rt, spec)
		n := is.Len()
		if n != int(spec.KeyRange/2) {
			t.Errorf("%s: populated %d, want %d", spec.Name, n, spec.KeyRange/2)
		}
		rng := workload.NewRng(3)
		for i := 0; i < 500; i++ {
			is.Op(rng)
		}
		// Stationary mix: size should stay in a broad band around half.
		n = is.Len()
		if n < int(spec.KeyRange/4) || n > int(3*spec.KeyRange/4) {
			t.Errorf("%s: size drifted to %d (range %d)", spec.Name, n, spec.KeyRange)
		}
	}
}

func TestMultiSetPartitions(t *testing.T) {
	rt := newRT(t, 0)
	rt.StartProfiling()
	specs := []IntSetSpec{
		{Kind: SetList, Name: "mm.list", KeyRange: 64, UpdateRatio: 0.5},
		{Kind: SetSkipList, Name: "mm.skip", KeyRange: 128, UpdateRatio: 0.2},
		{Kind: SetRBTree, Name: "mm.tree", KeyRange: 128, UpdateRatio: 0.05},
		{Kind: SetHash, Name: "mm.hash", KeyRange: 128, UpdateRatio: 0.5, Buckets: 32},
	}
	m := NewMultiSet(rt, specs)
	rng := workload.NewRng(8)
	for i := 0; i < 1000; i++ {
		m.Op(rng)
	}
	plan, err := rt.StopProfilingAndPartition()
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.NumPartitions(); got != 5 { // global + 4 structures
		t.Fatalf("NumPartitions = %d, want 5\n%s", got, plan.Describe(rt.Sites()))
	}
}

func TestPhasesFlip(t *testing.T) {
	rt := newRT(t, 0)
	cfg := PhasesConfig{
		Slots:                    64,
		InitialBalance:           100,
		PhaseOps:                 100,
		AuditRange:               16,
		ReadPhaseUpdateRatio:     0.05,
		WritePhaseRebalanceRatio: 0.5,
	}
	p := NewPhases(rt, cfg)
	if p.CurrentPhase() != "read-heavy" {
		t.Fatalf("initial phase = %s", p.CurrentPhase())
	}
	rng := workload.NewRng(6)
	seen := map[string]bool{}
	for i := 0; i < 450; i++ {
		seen[p.CurrentPhase()] = true
		p.Op(rng)
	}
	if !seen["read-heavy"] || !seen["update-heavy"] {
		t.Fatalf("phases seen: %v", seen)
	}
	if msg := p.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestPhasesConcurrentConservation(t *testing.T) {
	rt := newRT(t, 8)
	cfg := PhasesConfig{
		Slots:                    128,
		InitialBalance:           100,
		PhaseOps:                 500,
		AuditRange:               32,
		ReadPhaseUpdateRatio:     0.1,
		WritePhaseRebalanceRatio: 0.5,
	}
	p := NewPhases(rt, cfg)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := workload.NewRng(seed)
			for i := 0; i < 1000; i++ {
				p.Op(rng)
			}
		}(uint64(w) + 21)
	}
	wg.Wait()
	if msg := p.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestKindStrings(t *testing.T) {
	for k := ReservationKind(0); k < numKinds; k++ {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
	if ReservationKind(9).String() == "" {
		t.Fatal("empty unknown kind string")
	}
	for k := IntSetKind(0); k < NumSetKinds; k++ {
		if k.String() == "" {
			t.Fatal("empty set kind string")
		}
	}
	if IntSetKind(9).String() == "" {
		t.Fatal("empty unknown set kind string")
	}
}
