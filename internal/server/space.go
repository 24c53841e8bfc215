package server

import (
	"fmt"
	"sync"

	"repro/stm"
)

// KeySpace is the server's keyed object space: string key → one
// fixed-arity vector of 64-bit heap words. Keys are INTERNED: the first
// write-class touch of a key allocates its value object once, at the
// "kv.value" allocation site, and the key resolves to that stable heap
// address forever after. Request execution never parses or hashes keys
// inside the transaction: ops resolve to plain Addrs up front and the
// batch transaction touches only heap words.
//
// The one string→Addr table is a Go-side intern map (immutable entries,
// RWMutex + map). Creating a key costs one transaction that allocates
// the value object and stores its arity zero words, nothing else.
//
// Value objects start zeroed: a key created by ADD or CAS reads as zero
// words until the creating batch's writes commit. Interning commits in
// its own transaction BEFORE the batch transaction runs, so a batch
// that ultimately fails (e.g. MaxAttempts) can leave behind a created,
// still-zero key — creation is idempotent and value-neutral, so this is
// observable only as found=true on a never-written key.
type KeySpace struct {
	rt      *stm.Runtime
	arity   int
	valSite stm.SiteID

	mu   sync.RWMutex
	keys map[string]stm.Addr
}

// NewKeySpace creates a keyed space over rt whose value objects are
// arity words (1..wire MaxArity, enforced by the caller).
func NewKeySpace(rt *stm.Runtime, arity int) (*KeySpace, error) {
	if arity <= 0 {
		return nil, fmt.Errorf("server: arity %d (want >= 1)", arity)
	}
	return &KeySpace{
		rt:      rt,
		arity:   arity,
		valSite: rt.RegisterSite("kv.value"),
		keys:    make(map[string]stm.Addr),
	}, nil
}

// Arity returns the value vector size in words.
func (ks *KeySpace) Arity() int { return ks.arity }

// Len returns the number of interned keys.
func (ks *KeySpace) Len() int {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	return len(ks.keys)
}

// Lookup resolves key without creating it (the GET path).
func (ks *KeySpace) Lookup(key string) (stm.Addr, bool) {
	ks.mu.RLock()
	addr, ok := ks.keys[key]
	ks.mu.RUnlock()
	return addr, ok
}

// Intern resolves key, allocating its zeroed value object on first
// touch (the PUT/ADD/CAS path). The allocation commits in its own
// transaction; see the type comment for the visibility contract. On a
// DurabilitySync runtime it does not wait for that commit's fsync: a
// zeroed object nobody has written is worth nothing to a crash, and the
// first write that makes the key matter commits later in the log, so
// whoever waits for that write has waited for the creation.
func (ks *KeySpace) Intern(key string) (stm.Addr, error) {
	addr, _, err := ks.intern(key)
	return addr, err
}

// intern is Intern, also returning the log sequence of the creating
// commit (stm.DeferDurable) when this call created the key on a
// DurabilitySync runtime, 0 otherwise. Parking for the fsync here would
// hold the table's write lock across it: every Lookup, on every
// connection, would stall one sync per new key.
func (ks *KeySpace) intern(key string) (stm.Addr, uint64, error) {
	if addr, ok := ks.Lookup(key); ok {
		return addr, 0, nil
	}
	return ks.create(key)
}

// create is intern's slow path, apart so that what its closure captures
// is heap-allocated only here.
func (ks *KeySpace) create(key string) (addr stm.Addr, seq uint64, err error) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if addr, ok := ks.keys[key]; ok {
		return addr, 0, nil
	}
	err = ks.rt.Run(func(tx *stm.Tx) error {
		addr = tx.Alloc(ks.valSite, ks.arity)
		for i := 0; i < ks.arity; i++ {
			tx.Store(addr+stm.Addr(i), 0)
		}
		return nil
	}, stm.DeferDurable(&seq))
	if err != nil {
		return stm.Nil, 0, fmt.Errorf("server: interning %q: %w", key, err)
	}
	ks.keys[key] = addr
	return addr, seq, nil
}
