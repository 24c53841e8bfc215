package server_test

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/stm"
	"repro/stmnet"
)

// startServer brings up a loopback server and returns it with its
// address. The caller owns shutdown via srv.Close (which also closes the
// runtime); serveDone resolves with Serve's return.
func startServer(t *testing.T, scfg server.Config) (*server.Server, string, chan error) {
	t.Helper()
	if scfg.Runtime == nil {
		scfg.Runtime = stm.MustNew(stm.Config{HeapWords: 1 << 20, SnapshotHistory: 1 << 12})
	}
	srv, err := server.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(lis) }()
	return srv, lis.Addr().String(), serveDone
}

// TestLoopbackPipelinedConservation is the headline integration test:
// 8 clients, each pipelining transfers from 4 goroutines over its one
// connection, against a concurrent stream of snapshot GET batches. The
// balance sum is conserved in every snapshot read and at the end, and
// the read batches commit abort-free.
func TestLoopbackPipelinedConservation(t *testing.T) {
	srv, addr, serveDone := startServer(t, server.Config{})
	defer srv.Close()

	const (
		nClients   = 8
		nPerClient = 4 // pipelining goroutines per connection
		nKeys      = 64
		nTransfers = 300
		initial    = uint64(1000)
	)
	wantSum := initial * nKeys
	key := func(k int) string { return fmt.Sprintf("acct:%d", k) }

	// Preload.
	c0, err := stmnet.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	b := stmnet.NewBatch()
	for k := 0; k < nKeys; k++ {
		b.Put(key(k), initial)
	}
	if _, err := c0.Do(b); err != nil {
		t.Fatal(err)
	}

	clients := make([]*stmnet.Client, nClients)
	for i := range clients {
		if clients[i], err = stmnet.Dial(addr); err != nil {
			t.Fatal(err)
		}
		defer clients[i].Close()
	}

	var (
		wg      sync.WaitGroup
		stop    atomic.Bool
		readErr atomic.Value
	)
	// Writers: pipelined transfers, conserved by construction.
	for i, c := range clients {
		for g := 0; g < nPerClient; g++ {
			wg.Add(1)
			go func(c *stmnet.Client, seed uint64) {
				defer wg.Done()
				rng := seed
				for n := 0; n < nTransfers; n++ {
					rng = rng*6364136223846793005 + 1442695040888963407
					from := int(rng>>33) % nKeys
					to := (from + 1 + int(rng>>17)%(nKeys-1)) % nKeys
					d := rng%97 + 1
					_, err := c.Do(stmnet.NewBatch().
						Add(key(from), stmnet.Neg(d)).
						Add(key(to), d))
					if err != nil {
						readErr.Store(fmt.Errorf("transfer: %w", err))
						return
					}
				}
			}(c, uint64(i*nPerClient+g+1))
		}
	}
	// Readers: all-GET snapshot batches racing the writers; every batch
	// must observe the conserved sum (atomicity) and the run as a whole
	// must not abort a single one (snapshot mode).
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		c := clients[0]
		for !stop.Load() {
			b := stmnet.NewBatch()
			for k := 0; k < nKeys; k++ {
				b.Get(key(k))
			}
			res, err := c.Do(b)
			if err != nil {
				readErr.Store(fmt.Errorf("snapshot read: %w", err))
				return
			}
			var sum uint64
			for k, r := range res {
				if !r.Flag {
					readErr.Store(fmt.Errorf("key %d missing", k))
					return
				}
				sum += r.Val()
			}
			if sum != wantSum {
				readErr.Store(fmt.Errorf("snapshot sum = %d, want %d (torn read)", sum, wantSum))
				return
			}
		}
	}()

	wg.Wait()
	stop.Store(true)
	<-readerDone
	if err := readErr.Load(); err != nil {
		t.Fatal(err)
	}

	// Final balance check over a fresh connection.
	b = stmnet.NewBatch()
	for k := 0; k < nKeys; k++ {
		b.Get(key(k))
	}
	res, err := c0.Do(b)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, r := range res {
		sum += r.Val()
	}
	if sum != wantSum {
		t.Fatalf("final sum = %d, want %d", sum, wantSum)
	}
	c0.Close()

	st := srv.Stats()
	if st.SnapshotTxns == 0 {
		t.Fatal("no batch took the snapshot path")
	}
	if st.SnapshotAborts != 0 {
		t.Fatalf("snapshot read batches aborted %d times, want 0", st.SnapshotAborts)
	}
	if st.BadRequests != 0 {
		t.Fatalf("BadRequests = %d", st.BadRequests)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after graceful Close", err)
	}
}

// TestTypedErrorsRoundTrip: the wire's status codes rebuild the stm
// error types on the client, so errors.Is/As work against a remote
// server exactly as in-process.
func TestTypedErrorsRoundTrip(t *testing.T) {
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 20, SnapshotHistory: 1 << 12})
	srv, addr, _ := startServer(t, server.Config{Runtime: rt, MaxAttempts: 1})
	defer srv.Close()

	c, err := stmnet.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Oversized PUT (arity defaults to 8) → ErrBadRequest.
	_, err = c.Do(stmnet.NewBatch().Put("k", make([]uint64, 9)...))
	if !errors.Is(err, stmnet.ErrBadRequest) {
		t.Fatalf("oversized PUT: err = %v, want ErrBadRequest", err)
	}

	// Force a deterministic abort: intern "hot", then park a server-side
	// transaction holding its encounter-time lock. The remote ADD spins
	// out its CM budget, aborts, and with a 1-attempt budget the typed
	// error crosses the wire.
	if _, err := c.Do(stmnet.NewBatch().Add("hot", 0)); err != nil {
		t.Fatal(err)
	}
	hot, ok := srv.Space().Lookup("hot")
	if !ok {
		t.Fatal("hot not interned")
	}
	held := make(chan struct{})
	release := make(chan struct{})
	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		rt.Run(func(tx *stm.Tx) error {
			tx.Store(hot, 99)
			close(held)
			<-release
			return nil
		})
	}()
	<-held
	_, err = c.Do(stmnet.NewBatch().Add("hot", 1))
	close(release)
	<-holderDone
	var ma *stm.MaxAttemptsError
	if !errors.As(err, &ma) || !errors.Is(err, stm.ErrMaxAttempts) {
		t.Fatalf("contended ADD: err = %v, want *stm.MaxAttemptsError", err)
	}
	if ma.Attempts != 1 {
		t.Fatalf("Attempts = %d, want 1", ma.Attempts)
	}
	if ma.Cause == 0 {
		t.Fatalf("Cause = %v, want a lock-conflict cause", ma.Cause)
	}
}

// TestKilledConnLeaksNothing kills a connection mid-pipeline and checks
// the server sheds both connection goroutines and every dispatched
// request — the graceful-teardown path under an abrupt peer death.
func TestKilledConnLeaksNothing(t *testing.T) {
	srv, addr, _ := startServer(t, server.Config{})
	defer srv.Close()

	// Settle, then baseline.
	time.Sleep(10 * time.Millisecond)
	base := runtime.NumGoroutine()

	for round := 0; round < 4; round++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c := stmnet.NewClient(nc)
		// A pipeline of in-flight batches, then kill the socket without
		// reading the responses.
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for n := 0; n < 20; n++ {
					if _, err := c.Do(stmnet.NewBatch().Add(fmt.Sprintf("leak:%d", g), 1)); err != nil {
						return // expected once the conn dies
					}
				}
			}(g)
		}
		time.Sleep(time.Millisecond)
		nc.Close()
		wg.Wait()
		c.Close()
	}

	// The server drains asynchronously; give it a bounded window.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if n := runtime.NumGoroutine(); n <= base {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: baseline %d, now %d — connection teardown leaked", base, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if cur := srv.Stats().CurConns; cur != 0 {
		t.Fatalf("CurConns = %d after all connections died", cur)
	}
}

// TestCloseBeforeServeStarts pins the start/stop race: `go srv.Serve(lis)`
// followed at once by Close (stmbench's repeated set-ups do exactly that)
// may close the server before the Serve goroutine has run a line. That is
// a graceful shutdown like any other: Serve returns nil and the listener is
// closed, so nothing is left accepting.
func TestCloseBeforeServeStarts(t *testing.T) {
	srv, err := server.New(server.Config{Runtime: stm.MustNew(stm.Config{HeapWords: 1 << 16})})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := srv.Serve(lis); err != nil {
		t.Fatalf("Serve on a server closed first = %v, want nil", err)
	}
	if c, err := net.DialTimeout("tcp", lis.Addr().String(), time.Second); err == nil {
		c.Close()
		t.Fatal("listener still accepting after Serve returned")
	}
}

// TestKeyCreationCost pins what creating a key costs, whatever the
// number of keys already interned: one update commit that stores the
// value object's arity words and loads nothing. The intern map is the
// key space's only table; no transactional index shadows it.
func TestKeyCreationCost(t *testing.T) {
	const arity, n = 8, 1 << 16
	rt := stm.MustNew(stm.Config{HeapWords: 1 << 21})
	srv, err := server.New(server.Config{Runtime: rt, Arity: arity})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sum := func() (st stm.PartStats) {
		for _, p := range rt.Stats() {
			st.Loads += p.Loads
			st.Stores += p.Stores
			st.UpdateCommits += p.UpdateCommits
		}
		return st
	}
	before := sum()
	for i := 0; i < n; i++ {
		if _, err := srv.Space().Intern(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	got := sum()
	if d := got.Stores - before.Stores; d != arity*n {
		t.Errorf("%d keys stored %d words, want %d (%.1f per key)", n, d, arity*n, float64(d)/n)
	}
	if d := got.Loads - before.Loads; d != 0 {
		t.Errorf("%d keys loaded %d words, want 0 (%.1f per key)", n, d, float64(d)/n)
	}
	if d := got.UpdateCommits - before.UpdateCommits; d != n {
		t.Errorf("%d keys took %d update commits, want %d", n, d, n)
	}
	for _, name := range rt.Sites().Names() {
		if strings.HasPrefix(name, "kv.dir.") {
			t.Errorf("site %q registered: the key space keeps a second table", name)
		}
	}
}

// TestGracefulCloseDrains: Close completes with pipelined work in
// flight, every in-flight batch gets an answer or a clean connection
// error (never a hang), and the runtime closes without error.
func TestGracefulCloseDrains(t *testing.T) {
	srv, addr, serveDone := startServer(t, server.Config{})

	c, err := stmnet.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; ; n++ {
				if _, err := c.Do(stmnet.NewBatch().Add(fmt.Sprintf("drain:%d", g), 1)); err != nil {
					return // the closing server broke the connection
				}
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond)

	closeDone := make(chan error, 1)
	go func() { closeDone <- srv.Close() }()

	select {
	case err := <-closeDone:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung")
	}
	wg.Wait()
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after graceful Close", err)
	}
	// New connections are refused once closed.
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("dial succeeded after Close")
	}
}
