package main

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wfe"
)

var epoch = time.Now()

// now is a monotonic timestamp in nanoseconds.
func now() int64 { return int64(time.Since(epoch)) }

// Span names, one per layer boundary the benchmark's own code can see.
type spanName int8

const (
	spanNone spanName = iota - 1
	spanOp
	spanPin
	spanGuarded
	spanUnpin
	spanBatch
	numSpans
)

var spanNames = [numSpans]string{"op", "guardpool.pin", "ds.guarded", "guardpool.unpin", "batch.call"}

// A span is one recorded interval. Spans of one call share Op; Parent
// names the enclosing span ("" for a root).
type span struct {
	Worker int    `json:"worker"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

// maxKept bounds the spans each worker keeps for the trace file; the
// duration lists behind the percentiles keep every sampled call.
const maxKept = 4096

// A tracer is one worker's span recorder for the traced phase.
type tracer struct {
	worker int
	ops    int64
	durs   [numSpans][]float64
	kept   []span
	_      pad
}

func (t *tracer) record(op int64, name, parent spanName, start, end int64) {
	t.durs[name] = append(t.durs[name], float64(end-start))
	if len(t.kept) < maxKept {
		s := span{Worker: t.worker, Op: op, Name: spanNames[name], Start: start, End: end}
		if parent != spanNone {
			s.Parent = spanNames[parent]
		}
		t.kept = append(t.kept, s)
	}
}

func (t *tracer) next() int64 {
	t.ops++
	return t.ops
}

// leasedOp records a guardless call split into Pin, *Guarded and Unpin.
func (t *tracer) leasedOp(t0, t1, t2, t3 int64) {
	id := t.next()
	t.record(id, spanOp, spanNone, t0, t3)
	t.record(id, spanPin, spanOp, t0, t1)
	t.record(id, spanGuarded, spanOp, t1, t2)
	t.record(id, spanUnpin, spanOp, t2, t3)
}

// pinnedOp records a *Guarded call on a guard pinned for the whole phase.
func (t *tracer) pinnedOp(t0, t1 int64) {
	id := t.next()
	t.record(id, spanOp, spanNone, t0, t1)
	t.record(id, spanGuarded, spanOp, t0, t1)
}

// batchOp records one guardless Multi* call.
func (t *tracer) batchOp(t0, t1 int64) {
	id := t.next()
	t.record(id, spanOp, spanNone, t0, t1)
	t.record(id, spanBatch, spanOp, t0, t1)
}

// single records a lone span (a whole-phase pin); t may be nil.
func (t *tracer) single(name spanName, t0, t1 int64) {
	if t != nil {
		t.record(t.next(), name, spanNone, t0, t1)
	}
}

// quantile estimates the q-quantile of xs (which it sorts) as the mean of
// the order statistics in a rank band around it, which is steadier than a
// single order statistic on nanosecond-granular ties. The band is ±2% of
// the tail beyond q: ±1% of rank for the median, ±0.02% for p99. It
// returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	slices.Sort(xs)
	h := max(1, int(float64(n)*min(q, 1-q)/50))
	c := int(q*float64(n-1) + 0.5)
	lo, hi := max(0, c-h), min(n, c+h+1)
	return mean(xs[lo:hi])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

type mode int

const (
	warmup mode = iota // run, record nothing
	timed              // untraced; time the sampled calls
	traced             // Pin / *Guarded / Unpin split; span the sampled calls
)

// window is the throughput sampling period; a phase's throughput is the
// median of its windows.
const window = 100 * time.Millisecond

// maxLatency bounds the latency samples a worker keeps per phase: room
// for 1/32 of the calls of a 25 s window at 5 Mops/s per worker.
const maxLatency = 1 << 22

// pad keeps one worker's hot fields off the cache lines of the next
// object the allocator places beside them; without it the two workers'
// tallies can share a line and the false sharing varies run to run.
type pad [128]byte

// A worker is one closed-loop goroutine replaying its stream.
type worker struct {
	id   int
	ex   executor
	st   *stream
	pos  int           // next call, carried across phases
	done atomic.Uint64 // items completed this phase, for window sampling
	_    pad
}

// A phase is one stretch of closed-loop running, with the Telemetry
// snapshots taken at its quiescent edges.
type phase struct {
	items, calls, failed uint64
	elapsed              time.Duration
	rates                []float64 // items/s per window
	unreclaimed          []float64 // Unreclaimed at each window edge
	lat                  []float64 // sampled call latency, ns (timed)
	tracers              []*tracer // traced only
	before, after        wfe.Telemetry
}

func (p *phase) throughput() float64 { return quantile(slices.Clone(p.rates), 0.5) }

type workerResult struct {
	items, calls, failed uint64
	lat                  []float64
	tr                   *tracer
}

func (w *worker) loop(stop *atomic.Bool, m mode) workerResult {
	var lat []float64
	var tr *tracer
	if m == timed {
		lat = make([]float64, 0, maxLatency)
	}
	if m == traced {
		tr = &tracer{worker: w.id}
	}
	w.done.Store(0)
	w.ex.start(tr)
	var items, failed, calls uint64
	for !stop.Load() {
		i := w.pos
		if w.pos++; w.pos == len(w.st.kinds) {
			w.pos = 0
		}
		var it, f int
		switch {
		case m == traced:
			if w.st.sample[i] {
				it, f = w.ex.traced(i, tr)
			} else {
				it, f = w.ex.traced(i, nil)
			}
		case m == timed && w.st.sample[i] && len(lat) < maxLatency:
			t0 := now()
			it, f = w.ex.call(i)
			lat = append(lat, float64(now()-t0))
		default:
			it, f = w.ex.call(i)
		}
		items += uint64(it)
		failed += uint64(f)
		if calls++; calls&7 == 0 {
			w.done.Store(items)
		}
	}
	w.done.Store(items)
	w.ex.stop(tr)
	return workerResult{items, calls, failed, lat, tr}
}

// runPhase runs every worker for dur in mode m and samples throughput
// (and, when watch is set, the retired backlog) at each window edge.
func runPhase(d *wfe.Domain[uint64], ws []*worker, m mode, dur time.Duration, watch bool) *phase {
	p := &phase{before: d.Telemetry()}
	var stop atomic.Bool
	var wg sync.WaitGroup
	res := make([]workerResult, len(ws))
	start := time.Now()
	for i, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i] = w.loop(&stop, m)
		}()
	}
	prevT, prev := start, uint64(0)
	for k := 1; time.Duration(k)*window <= dur; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * window)))
		t := time.Now()
		var tot uint64
		for _, w := range ws {
			tot += w.done.Load()
		}
		p.rates = append(p.rates, float64(tot-prev)/t.Sub(prevT).Seconds())
		prevT, prev = t, tot
		if watch {
			p.unreclaimed = append(p.unreclaimed, float64(d.Unreclaimed()))
		}
	}
	stop.Store(true)
	wg.Wait()
	p.elapsed = time.Since(start)
	p.after = d.Telemetry()
	for _, r := range res {
		p.items += r.items
		p.calls += r.calls
		p.failed += r.failed
		p.lat = append(p.lat, r.lat...)
		if r.tr != nil {
			p.tracers = append(p.tracers, r.tr)
		}
	}
	return p
}

// durations gathers one span's durations across every worker.
func (p *phase) durations(name spanName) []float64 {
	var xs []float64
	for _, t := range p.tracers {
		xs = append(xs, t.durs[name]...)
	}
	return xs
}
