// Package apps contains the application benchmarks of the evaluation:
// vacation (a STAMP-style travel reservation system), bank (transfers and
// audits over an account array), the phase-switching composite workload,
// and the multi-structure intset application. Each app is built on the
// *stm.Runtime its constructor takes and exposes an operation driver that
// any goroutine may call, plus invariant checks used by the tests.
package apps

import (
	"fmt"

	"repro/internal/workload"
	"repro/stm"
	"repro/txds"
)

// Reservation tables, STAMP-style: flights, cars and rooms are red-black
// trees keyed by item id; each item packs (total, free, price) into the
// value word. Customers are a fourth tree whose value is the address of a
// customer record holding a linked list of reservations.
//
// The partitioning story is exactly the paper's: the four tables are
// pointer-disjoint structures, so the analyzer places each in its own
// partition, and the reservation tables (update-heavy during bookings)
// can be tuned differently from, say, a read-mostly flights table.

// ReservationKind distinguishes the three bookable tables.
type ReservationKind uint64

// Bookable tables.
const (
	KindFlight ReservationKind = iota
	KindCar
	KindRoom
	numKinds
)

func (k ReservationKind) String() string {
	switch k {
	case KindFlight:
		return "flight"
	case KindCar:
		return "car"
	case KindRoom:
		return "room"
	default:
		return fmt.Sprintf("kind(%d)", uint64(k))
	}
}

// Item value packing: price (16 bits) | free (24 bits) | total (24 bits).
func packItem(total, free, price uint64) uint64 {
	return total&0xFFFFFF | (free&0xFFFFFF)<<24 | (price&0xFFFF)<<48
}

func unpackItem(v uint64) (total, free, price uint64) {
	return v & 0xFFFFFF, (v >> 24) & 0xFFFFFF, (v >> 48) & 0xFFFF
}

// Customer record layout: [0] = reservation list head.
// Reservation node layout: [0]=kind, [1]=itemID, [2]=price, [3]=next.
const (
	custWords = 1
	resvKind  = 0
	resvItem  = 1
	resvPrice = 2
	resvNext  = 3
	resvWords = 4
)

// VacationConfig sizes the reservation system.
type VacationConfig struct {
	ItemsPerTable int // rows per bookable table
	Customers     int
	InitialSeats  uint64 // capacity per item
	QueriesPerTx  int    // items examined per reservation transaction
	// UpdateTableRatio and DeleteCustomerRatio give the STAMP-style mix;
	// the rest are MakeReservation transactions.
	UpdateTableRatio    float64
	DeleteCustomerRatio float64
}

// DefaultVacationConfig mirrors STAMP vacation-low proportions.
func DefaultVacationConfig() VacationConfig {
	return VacationConfig{
		ItemsPerTable:       1 << 10,
		Customers:           1 << 10,
		InitialSeats:        100,
		QueriesPerTx:        4,
		UpdateTableRatio:    0.01,
		DeleteCustomerRatio: 0.01,
	}
}

// Vacation is the travel reservation system.
type Vacation struct {
	rt        *stm.Runtime
	cfg       VacationConfig
	tables    [numKinds]*txds.RBTree
	customers *txds.RBTree
	custSite  stm.SiteID
	resvSite  stm.SiteID
}

// NewVacation builds the tables and populates them. Population runs many
// small transactions, so it also serves as the profiling workload for
// partition discovery.
func NewVacation(rt *stm.Runtime, cfg VacationConfig) *Vacation {
	v := &Vacation{rt: rt, cfg: cfg}
	rt.Run(func(tx *stm.Tx) error {
		v.tables[KindFlight] = txds.NewRBTree(tx, rt, "vacation.flights")
		v.tables[KindCar] = txds.NewRBTree(tx, rt, "vacation.cars")
		v.tables[KindRoom] = txds.NewRBTree(tx, rt, "vacation.rooms")
		v.customers = txds.NewRBTree(tx, rt, "vacation.customers")
		v.custSite = rt.RegisterSite("vacation.customers.record")
		v.resvSite = rt.RegisterSite("vacation.customers.resv")
		return nil
	})
	rng := workload.NewRng(1)
	for i := 0; i < cfg.ItemsPerTable; i++ {
		id := uint64(i)
		price := 50 + uint64(rng.Intn(450))
		rt.Run(func(tx *stm.Tx) error {
			for k := ReservationKind(0); k < numKinds; k++ {
				v.tables[k].Insert(tx, id, packItem(cfg.InitialSeats, cfg.InitialSeats, price))
			}
			return nil
		})
	}
	for c := 0; c < cfg.Customers; c++ {
		id := uint64(c)
		rt.Run(func(tx *stm.Tx) error {
			rec := tx.Alloc(v.custSite, custWords)
			tx.Store(rec, uint64(stm.Nil))
			v.customers.Insert(tx, id, uint64(rec))
			return nil
		})
	}
	return v
}

// Config returns the sizing used.
func (v *Vacation) Config() VacationConfig { return v.cfg }

// MakeReservation examines QueriesPerTx random items in a random table
// and books the cheapest one with free capacity for the customer. It
// reports whether a booking was made.
func (v *Vacation) MakeReservation(rng *workload.Rng) bool {
	kind := ReservationKind(rng.Intn(int(numKinds)))
	custID := uint64(rng.Intn(v.cfg.Customers))
	ids := make([]uint64, v.cfg.QueriesPerTx)
	for i := range ids {
		ids[i] = uint64(rng.Intn(v.cfg.ItemsPerTable))
	}
	booked := false
	v.rt.Run(func(tx *stm.Tx) error {
		booked = false // reset on retry
		table := v.tables[kind]
		bestID, bestPrice := uint64(0), ^uint64(0)
		found := false
		for _, id := range ids {
			val, ok := table.Lookup(tx, id)
			if !ok {
				continue // item removed by a table update
			}
			_, free, price := unpackItem(val)
			if free > 0 && price < bestPrice {
				bestID, bestPrice, found = id, price, true
			}
		}
		if !found {
			return nil
		}
		recAddr, ok := v.customers.Lookup(tx, custID)
		if !ok {
			return nil // customer deleted concurrently
		}
		val, _ := table.Lookup(tx, bestID)
		total, free, price := unpackItem(val)
		if free == 0 {
			return nil
		}
		table.Set(tx, bestID, packItem(total, free-1, price))
		n := tx.Alloc(v.resvSite, resvWords)
		tx.Store(n+resvKind, uint64(kind))
		tx.Store(n+resvItem, bestID)
		tx.Store(n+resvPrice, price)
		rec := stm.Addr(recAddr)
		tx.StoreAddr(n+resvNext, tx.LoadAddr(rec))
		tx.StoreAddr(rec, n)
		booked = true
		return nil
	})
	return booked
}

// DeleteCustomer removes a customer and releases all their reservations
// back to the tables. Reports whether the customer existed.
func (v *Vacation) DeleteCustomer(rng *workload.Rng) bool {
	custID := uint64(rng.Intn(v.cfg.Customers))
	existed := false
	v.rt.Run(func(tx *stm.Tx) error {
		existed = false
		recAddr, ok := v.customers.Remove(tx, custID)
		if !ok {
			return nil
		}
		existed = true
		rec := stm.Addr(recAddr)
		n := tx.LoadAddr(rec)
		for n != stm.Nil {
			kind := ReservationKind(tx.Load(n + resvKind))
			item := tx.Load(n + resvItem)
			if val, ok := v.tables[kind].Lookup(tx, item); ok {
				total, free, price := unpackItem(val)
				v.tables[kind].Set(tx, item, packItem(total, free+1, price))
			}
			next := tx.LoadAddr(n + resvNext)
			tx.Free(n, resvWords)
			n = next
		}
		tx.Free(rec, custWords)
		// Recreate the customer empty so the id space stays stable (the
		// STAMP benchmark deletes and re-adds customers over time; keeping
		// the population constant keeps the mix stationary).
		fresh := tx.Alloc(v.custSite, custWords)
		tx.Store(fresh, uint64(stm.Nil))
		v.customers.Insert(tx, custID, uint64(fresh))
		return nil
	})
	return existed
}

// UpdateTables performs the STAMP "manager" operation: for a few random
// items, either re-price them or toggle them out of/into existence.
func (v *Vacation) UpdateTables(rng *workload.Rng) {
	kind := ReservationKind(rng.Intn(int(numKinds)))
	n := 1 + rng.Intn(4)
	ids := make([]uint64, n)
	prices := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(rng.Intn(v.cfg.ItemsPerTable))
		prices[i] = 50 + uint64(rng.Intn(450))
	}
	v.rt.Run(func(tx *stm.Tx) error {
		table := v.tables[kind]
		for i, id := range ids {
			if val, ok := table.Lookup(tx, id); ok {
				total, free, _ := unpackItem(val)
				table.Set(tx, id, packItem(total, free, prices[i]))
			} else {
				table.Insert(tx, id, packItem(v.cfg.InitialSeats, v.cfg.InitialSeats, prices[i]))
			}
		}
		return nil
	})
}

// Op runs one operation drawn from the configured mix; it returns a label
// for throughput accounting.
func (v *Vacation) Op(rng *workload.Rng) string {
	u := rng.Float64()
	switch {
	case u < v.cfg.UpdateTableRatio:
		v.UpdateTables(rng)
		return "update"
	case u < v.cfg.UpdateTableRatio+v.cfg.DeleteCustomerRatio:
		v.DeleteCustomer(rng)
		return "delete"
	default:
		v.MakeReservation(rng)
		return "reserve"
	}
}

// CheckInvariants validates that for every item, used seats (reservations
// held by customers) + free seats == total seats, and that all table
// shapes are valid red-black trees. Returns "" when consistent.
func (v *Vacation) CheckInvariants() string {
	var msg string
	v.rt.Run(func(tx *stm.Tx) error {
		msg = ""
		for k := ReservationKind(0); k < numKinds; k++ {
			if m := v.tables[k].CheckInvariants(tx); m != "" {
				msg = fmt.Sprintf("%s table: %s", k, m)
				return nil
			}
		}
		if m := v.customers.CheckInvariants(tx); m != "" {
			msg = "customers table: " + m
			return nil
		}
		// Count reservations per (kind, item).
		used := make(map[[2]uint64]uint64)
		for _, custID := range v.customers.Keys(tx) {
			recAddr, _ := v.customers.Lookup(tx, custID)
			for n := tx.LoadAddr(stm.Addr(recAddr)); n != stm.Nil; n = tx.LoadAddr(n + resvNext) {
				used[[2]uint64{tx.Load(n + resvKind), tx.Load(n + resvItem)}]++
			}
		}
		for k := ReservationKind(0); k < numKinds; k++ {
			for _, id := range v.tables[k].Keys(tx) {
				val, _ := v.tables[k].Lookup(tx, id)
				total, free, _ := unpackItem(val)
				u := used[[2]uint64{uint64(k), id}]
				if free+u != total {
					msg = fmt.Sprintf("%s item %d: free %d + used %d != total %d", k, id, free, u, total)
					return nil
				}
			}
		}
		return nil
	})
	return msg
}
