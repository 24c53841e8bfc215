package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Outside-in tracing: spans are recorded from the benchmark's own files,
// around the calls into each layer. A request's root span covers
// Client.Do (or Runtime.Run); its child spans come from replaying that
// request's bytes, keys and addresses through the layers' public
// functions on the benchmark's goroutine, right after the root ends.
// Spans stay in memory and are written out when the pass ends.

type spanName uint8

const (
	spRoot spanName = iota // client.do for kv-*, run.<structure> / run.scan otherwise
	spEncodeReq
	spDecodeReq
	spResolve
	spCoreRun
	spWalPublish
	spWalDurableWait
	spEncodeResp
	spDecodeResp
	spList // multiset roots, by structure (msList.. order)
	spSkip
	spTree
	spHash
	spLedger
	spScan
	numSpanNames
)

var spanLabels = [numSpanNames]string{
	"client.do", "wire.encode_req", "wire.decode_req", "server.resolve", "core.run",
	"wal.publish", "wal.durable_wait", "wire.encode_resp", "wire.decode_resp",
	"run.list", "run.skiplist", "run.rbtree", "run.hashset", "run.ledger", "run.scan",
}

// span is one timed interval; its id is its index in the tracer.
type span struct {
	name       spanName
	parent     int32 // id of the span that caused it, -1 for a root
	req        uint32
	start, end int64 // ns since the tracer's epoch
}

// tracer collects the spans of one single-goroutine traced pass.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<20)}
}

// now returns ns since the tracer's epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished span and returns its id.
func (t *tracer) add(name spanName, parent int32, req uint32, start, end int64) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// medianNs returns the median duration, in ns, of the spans match
// accepts (0 when there are none).
func (t *tracer) medianNs(match func(*span) bool) float64 {
	var d []int64
	for i := range t.spans {
		if s := &t.spans[i]; match(s) {
			d = append(d, s.end-s.start)
		}
	}
	sortInt64(d)
	return float64(quantile(d, 0.5))
}

func isRoot(s *span) bool { return s.parent == -1 }

func named(name spanName) func(*span) bool {
	return func(s *span) bool { return s.name == name }
}

// requestProfile is the anatomy of the median request: over the requests
// whose root span lies in the middle tenth by duration, the mean root
// duration, the mean time in each named descendant span, and the mean
// self time. A request's self time is its root's duration minus the time
// its direct children cover (children are replayed after the root, not
// inside it, so self time is what no replayed layer call accounts for).
// For every request root = self + direct children, so these means add up
// exactly; medians taken span by span would not.
type requestProfile struct {
	root, self float64
	direct     float64 // time in the root's direct children
	byName     [numSpanNames]float64
}

func (t *tracer) medianRequestProfile() requestProfile {
	var roots []int // span ids of the roots
	for i := range t.spans {
		if t.spans[i].parent == -1 {
			roots = append(roots, i)
		}
	}
	dur := func(i int) int64 { return t.spans[i].end - t.spans[i].start }
	sort.Slice(roots, func(a, b int) bool { return dur(roots[a]) < dur(roots[b]) })
	lo, hi := len(roots)*45/100, len(roots)*55/100
	band := roots[lo:max(hi, min(lo+1, len(roots)))]

	var p requestProfile
	for _, r := range band {
		p.root += float64(dur(r))
		// A request's spans follow its root, up to the next root.
		for j := r + 1; j < len(t.spans) && t.spans[j].parent != -1; j++ {
			p.byName[t.spans[j].name] += float64(dur(j))
			if t.spans[j].parent == int32(r) {
				p.direct += float64(dur(j))
			}
		}
	}
	if n := float64(len(band)); n > 0 {
		p.root /= n
		p.direct /= n
		for i := range p.byName {
			p.byName[i] /= n
		}
	}
	p.self = p.root - p.direct
	return p
}

// maxTraceLines bounds the trace file; the figures always use every span.
const maxTraceLines = 1 << 18

// write stores the spans as JSON lines in dir/trace-<workload>.jsonl.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for i := range t.spans[:min(len(t.spans), maxTraceLines)] {
		s := &t.spans[i]
		fmt.Fprintf(w, `{"id":%d,"name":%q,"start":%d,"end":%d,"parent":%d,"req":%d}`+"\n",
			i, spanLabels[s.name], s.start, s.end, s.parent, s.req)
	}
	// Sync, so the write-back of this file is paid for here and not by
	// the fsyncs of whatever run comes next.
	if err := errors.Join(w.Flush(), f.Sync()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
