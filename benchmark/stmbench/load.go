package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's own load drivers and statistics: an open-loop pacer
// with intended-start latency, a closed-loop driver, and an exact
// (store every sample, sort) percentile recorder.

// sleepSlack is how early waitUntil stops sleeping and starts yielding.
// A Go sleep here ends on the next millisecond tick, up to 1.1 ms late,
// so only the part of a wait well beyond that is slept.
const sleepSlack = 2500 * time.Microsecond

// waitUntil returns at (or as soon as possible after) due. Close to the
// due time it yields in a loop. A processor whose goroutine only yields
// never reaches the scheduler's network poll, so callers keep the number
// of goroutines that can wait this way at once no higher than the number
// of connections: with sixteen, replies sat unread for milliseconds.
func waitUntil(due time.Time) {
	for {
		d := time.Until(due)
		if d <= 0 {
			return
		}
		if d > sleepSlack {
			time.Sleep(d - sleepSlack)
		} else {
			runtime.Gosched()
		}
	}
}

// openGrace is how long past its end an open-loop phase keeps serving
// late arrivals before it counts the rest as failed.
const openGrace = time.Second

// openResult is what one open-loop phase measured.
type openResult struct {
	lat      []int64 // ns from intended start to completion, one per served arrival, sorted
	arrivals int     // arrivals scheduled in the phase
	failed   int     // arrivals whose op failed, plus arrivals never served
	maxLag   time.Duration
	achieved float64 // served arrivals per second over the time they took
}

// runOpen offers arrivals at a fixed rate for dur: arrival i is due at
// start + i/rate whether or not earlier ones have finished, and its
// latency runs from that due time. Each of workers goroutines (the bound
// on requests in flight) claims the next arrival, waits until it is due
// and issues it itself, so nothing sits between the schedule and the
// request. do runs one op and reports whether it succeeded.
func runOpen(workers int, rate float64, dur time.Duration, do func(worker int) bool) openResult {
	n := max(int(rate*dur.Seconds()), 1)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	cutoff := start.Add(dur + openGrace)

	type part struct {
		lat    []int64
		failed int
		maxLag time.Duration
		last   time.Time
	}
	parts := make([]part, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &parts[w]
			p.lat = make([]int64, 0, n/workers+n/8+16)
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				waitUntil(due)
				issue := time.Now()
				if issue.After(cutoff) {
					next.Store(int64(n)) // the rest are never served
					return
				}
				p.maxLag = max(p.maxLag, issue.Sub(due))
				if !do(w) {
					p.failed++
				}
				p.last = time.Now()
				p.lat = append(p.lat, int64(p.last.Sub(due)))
			}
		}(w)
	}
	wg.Wait()

	res := openResult{arrivals: n}
	var last time.Time
	for i := range parts {
		p := &parts[i]
		res.lat = append(res.lat, p.lat...)
		res.failed += p.failed
		res.maxLag = max(res.maxLag, p.maxLag)
		if p.last.After(last) {
			last = p.last
		}
	}
	res.failed += n - len(res.lat)
	if took := last.Sub(start); took > 0 {
		res.achieved = float64(len(res.lat)) / took.Seconds()
	}
	sortInt64(res.lat)
	return res
}

// sliceDur is the grain at which a closed-loop phase samples its own
// throughput. The reported throughput is the median over the slices, as
// the reported latency is the median over the requests: a stall of a
// few hundred milliseconds (another tenant of the host, a slow fsync)
// lowers a mean in proportion and leaves a median where it was.
const sliceDur = 200 * time.Millisecond

// closedResult is what one closed-loop phase measured.
type closedResult struct {
	ops    int
	failed int
	tput   float64   // ops per second over the whole phase, summed over the workers
	rates  []float64 // ops per second in each full slice of the phase, all workers together
}

// runClosed keeps workers goroutines each issuing ops back to back for
// dur. do runs a chunk of ops and returns how many it ran and how many
// of them failed; chunks let sub-microsecond ops amortize the clock read.
// A chunk counts in the slice it ends in.
func runClosed(workers int, dur time.Duration, do func(worker int) (ops, failed int)) closedResult {
	type part struct {
		closedResult
		slices []int // ops per slice; the last entry takes what ends after the last full slice
	}
	full := int(dur / sliceDur)
	parts := make([]part, workers)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &parts[w]
			p.slices = make([]int, full+1)
			now := time.Now()
			for now.Before(deadline) {
				n, f := do(w)
				p.ops += n
				p.failed += f
				now = time.Now()
				p.slices[min(int(now.Sub(start)/sliceDur), full)] += n
			}
			p.tput = float64(p.ops) / now.Sub(start).Seconds()
		}(w)
	}
	wg.Wait()
	res := closedResult{rates: make([]float64, full)}
	for _, p := range parts {
		res.ops += p.ops
		res.failed += p.failed
		res.tput += p.tput
		for i := range res.rates {
			res.rates[i] += float64(p.slices[i]) / sliceDur.Seconds()
		}
	}
	if full == 0 { // a phase shorter than a slice (smoke runs) is one sample
		res.rates = []float64{res.tput}
	}
	return res
}

func sortInt64(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

// quantile returns the q-quantile of sorted by nearest rank: the
// smallest sample with at least q of the samples at or below it. No
// interpolation and no bucketing, so it is always a recorded value.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle of vals (mean of the middle two when even).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// spread returns the distance between the first and third quartile of
// vals as a share of their median, with the quartiles Python's
// statistics.quantiles(vals, n=4) gives, so the figure printed beside a
// metric is the one the acceptance rule is stated in.
func spread(vals []float64) float64 {
	m := median(vals)
	if len(vals) < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		pos := i * (len(s) + 1)
		j := min(max(pos/4, 1), len(s)-1)
		delta := pos - 4*j // outside [0,4] after clamping: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return math.Abs(quartile(3)-quartile(1)) / math.Abs(m)
}
