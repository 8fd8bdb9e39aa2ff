package main

import (
	"fmt"
	"math/rand/v2"

	"wfe"
)

// Shared inputs of every workload (the paper's §5 setup): keys uniform in
// [0, keyRange), a prefill of prefillN distinct keys, values equal to keys.
const (
	numWorkers = 2
	keyRange   = 100_000
	prefillN   = 50_000
	batchWidth = 32
)

type kind uint8

const (
	opInsert      kind = iota // HashMap.TryInsert
	opDelete                  // HashMap.Delete
	opGet                     // Tree.Get
	opPut                     // Tree.TryPut, HashMap.TryMultiPut
	opEnq                     // WFQueue.TryEnqueueGuarded
	opDeq                     // WFQueue.DequeueGuarded
	opMultiDelete             // HashMap.MultiDelete
)

// A stream is one worker's op stream, generated before timing and replayed
// cyclically: call i runs kinds[i] on keys[i*width:(i+1)*width]. Calls
// with sample[i] set are timed (untraced run) or traced (traced run).
type stream struct {
	kinds  []kind
	keys   []uint64
	width  int
	sample []bool
}

func (s *stream) batch(i int) []uint64 { return s.keys[i*s.width : (i+1)*s.width] }

// A spec describes a workload: its op mix and how its stream is sampled.
type spec struct {
	name   string
	calls  int // stream length in calls (even, so alternation survives the wrap)
	width  int // keys per call
	every  int // one call in every is sampled, on average
	pick   func(r *rand.Rand, i int) kind
	create func(d *wfe.Domain[uint64], in *inputs) workload
}

var specs = []spec{
	{
		name: "hashmap-churn", calls: 1 << 18, width: 1, every: 32,
		pick: func(r *rand.Rand, _ int) kind {
			if r.IntN(2) == 0 {
				return opInsert
			}
			return opDelete
		},
		create: newChurn,
	},
	{
		name: "tree-read", calls: 1 << 18, width: 1, every: 32,
		pick: func(r *rand.Rand, _ int) kind {
			if r.IntN(10) == 0 {
				return opPut
			}
			return opGet
		},
		create: newTreeRead,
	},
	{
		name: "wfqueue-pinned", calls: 1 << 18, width: 1, every: 32,
		pick: func(_ *rand.Rand, i int) kind {
			if i%2 == 0 {
				return opEnq
			}
			return opDeq
		},
		create: newQueue,
	},
	{
		name: "hashmap-batch", calls: 1 << 14, width: batchWidth, every: 4,
		pick: func(r *rand.Rand, _ int) kind {
			if r.IntN(2) == 0 {
				return opPut
			}
			return opMultiDelete
		},
		create: newBatch,
	},
}

func lookup(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// inputs is everything a run replays, derived from the seed alone.
type inputs struct {
	prefill []uint64
	streams [numWorkers]stream
}

func genInputs(sp spec, seed uint64) *inputs {
	in := &inputs{}
	r := rand.New(rand.NewPCG(seed, 0))
	for _, k := range r.Perm(keyRange)[:prefillN] {
		in.prefill = append(in.prefill, uint64(k))
	}
	for w := range in.streams {
		r := rand.New(rand.NewPCG(seed, uint64(w)+1))
		st := stream{
			kinds:  make([]kind, sp.calls),
			keys:   make([]uint64, sp.calls*sp.width),
			width:  sp.width,
			sample: make([]bool, sp.calls),
		}
		for i := range st.kinds {
			st.kinds[i] = sp.pick(r, i)
			st.sample[i] = r.IntN(sp.every) == 0
		}
		for i := range st.keys {
			st.keys[i] = uint64(r.IntN(keyRange))
		}
		in.streams[w] = st
	}
	return in
}

// A workload is one structure under test plus its correctness oracle.
type workload interface {
	// executor returns worker w's call runner.
	executor(w int) executor
	// check verifies the structure's final state and the workers' tallies;
	// it runs after every worker has stopped.
	check() error
	// corrupt plants one wrong result for the self-check to catch.
	corrupt()
}

// An executor drives one worker's calls. call runs call i untraced;
// traced runs it split at the layer boundaries, recording spans into tr
// when tr is non-nil. Both return the items the call carried and how many
// of them failed. start and stop bracket every phase.
type executor interface {
	start(tr *tracer)
	stop(tr *tracer)
	call(i int) (items, failed int)
	traced(i int, tr *tracer) (items, failed int)
}

// guardedOps is a per-op workload's call in its two forms: the guardless
// public method, and the *Guarded body the traced run calls on a pin.
type guardedOps interface {
	plain(i int) (failed int)
	guarded(g *wfe.Guard[uint64], i int) (failed int)
}

// leased runs a per-op workload: guardless calls untraced; traced, each
// call is d.Pin, the *Guarded body, d.Unpin, each under its own span.
type leased struct {
	d   *wfe.Domain[uint64]
	ops guardedOps
}

func (l leased) start(*tracer)                  {}
func (l leased) stop(*tracer)                   {}
func (l leased) call(i int) (items, failed int) { return 1, l.ops.plain(i) }

func (l leased) traced(i int, tr *tracer) (items, failed int) {
	if tr == nil {
		g := l.d.Pin()
		failed = l.ops.guarded(g, i)
		l.d.Unpin(g)
		return 1, failed
	}
	t0 := now()
	g := l.d.Pin()
	t1 := now()
	failed = l.ops.guarded(g, i)
	t2 := now()
	l.d.Unpin(g)
	t3 := now()
	tr.leasedOp(t0, t1, t2, t3)
	return 1, failed
}

// scan reads every key of the range and checks each value read equals
// its key; it returns the set of keys present.
func scan(get func(k uint64) (uint64, bool)) (present []bool, err error) {
	present = make([]bool, keyRange)
	for k := range uint64(keyRange) {
		v, ok := get(k)
		if ok && v != k {
			return nil, fmt.Errorf("key %d reads value %d (use-after-free or lost update)", k, v)
		}
		present[k] = ok
	}
	return present, nil
}

func count(set []bool) int {
	n := 0
	for _, b := range set {
		if b {
			n++
		}
	}
	return n
}

// corruptFirst overwrites the first present key's value with a wrong one.
func corruptFirst(get func(k uint64) (uint64, bool), put func(k, v uint64)) {
	for k := range uint64(keyRange) {
		if _, ok := get(k); ok {
			put(k, k+1)
			return
		}
	}
}

// --- hashmap-churn: guardless 50% TryInsert / 50% Delete ---

type churn struct {
	d       *wfe.Domain[uint64]
	m       *wfe.HashMap[uint64]
	workers [numWorkers]*churnOps
}

type churnOps struct {
	m                 *wfe.HashMap[uint64]
	st                *stream
	inserted, deleted int
	_                 pad
}

func newChurn(d *wfe.Domain[uint64], in *inputs) workload {
	w := &churn{d: d, m: wfe.NewHashMap[uint64](d, keyRange)}
	for _, k := range in.prefill {
		w.m.Insert(k, k)
	}
	for i := range w.workers {
		w.workers[i] = &churnOps{m: w.m, st: &in.streams[i]}
	}
	return w
}

func (w *churn) executor(i int) executor {
	return leased{d: w.d, ops: w.workers[i]}
}

func (o *churnOps) plain(i int) int {
	k := o.st.keys[i]
	if o.st.kinds[i] == opInsert {
		ok, err := o.m.TryInsert(k, k)
		return o.inserts(ok, err)
	}
	if o.m.Delete(k) {
		o.deleted++
	}
	return 0
}

func (o *churnOps) guarded(g *wfe.Guard[uint64], i int) int {
	k := o.st.keys[i]
	if o.st.kinds[i] == opInsert {
		ok, err := o.m.TryInsertGuarded(g, k, k)
		return o.inserts(ok, err)
	}
	if o.m.DeleteGuarded(g, k) {
		o.deleted++
	}
	return 0
}

func (o *churnOps) inserts(ok bool, err error) int {
	if err != nil {
		return 1
	}
	if ok {
		o.inserted++
	}
	return 0
}

func (w *churn) check() error {
	present, err := scan(w.m.Get)
	if err != nil {
		return err
	}
	want := prefillN
	for _, o := range w.workers {
		want += o.inserted - o.deleted
	}
	if n, l := count(present), w.m.Len(); n != want || l != want {
		return fmt.Errorf("final size: %d keys found, Len %d, want prefill+inserts-deletes = %d", n, l, want)
	}
	return nil
}

func (w *churn) corrupt() { corruptFirst(w.m.Get, w.m.Put) }

// --- tree-read: guardless 90% Get / 10% TryPut ---

type treeRead struct {
	d       *wfe.Domain[uint64]
	t       *wfe.Tree[uint64]
	inPre   []bool
	workers [numWorkers]*treeOps
}

type treeOps struct {
	t      *wfe.Tree[uint64]
	st     *stream
	inPre  []bool
	put    []bool // keys this worker stored
	wrong  int    // Gets that read a value other than the key
	lost   int    // Gets that missed a prefilled key (the tree never deletes)
	badKey uint64
	_      pad
}

func newTreeRead(d *wfe.Domain[uint64], in *inputs) workload {
	w := &treeRead{d: d, t: wfe.NewTree[uint64](d), inPre: make([]bool, keyRange)}
	for _, k := range in.prefill {
		w.t.Insert(k, k)
		w.inPre[k] = true
	}
	for i := range w.workers {
		w.workers[i] = &treeOps{t: w.t, st: &in.streams[i], inPre: w.inPre, put: make([]bool, keyRange)}
	}
	return w
}

func (w *treeRead) executor(i int) executor {
	return leased{d: w.d, ops: w.workers[i]}
}

func (o *treeOps) plain(i int) int {
	k := o.st.keys[i]
	if o.st.kinds[i] == opGet {
		v, ok := o.t.Get(k)
		o.read(k, v, ok)
		return 0
	}
	return o.stored(k, o.t.TryPut(k, k))
}

func (o *treeOps) guarded(g *wfe.Guard[uint64], i int) int {
	k := o.st.keys[i]
	if o.st.kinds[i] == opGet {
		v, ok := o.t.GetGuarded(g, k)
		o.read(k, v, ok)
		return 0
	}
	return o.stored(k, o.t.TryPutGuarded(g, k, k))
}

func (o *treeOps) read(k, v uint64, ok bool) {
	if ok && v != k {
		o.wrong++
		o.badKey = k
	}
	if !ok && o.inPre[k] {
		o.lost++
		o.badKey = k
	}
}

func (o *treeOps) stored(k uint64, err error) int {
	if err != nil {
		return 1
	}
	o.put[k] = true
	return 0
}

func (w *treeRead) check() error {
	for _, o := range w.workers {
		if o.wrong+o.lost > 0 {
			return fmt.Errorf("in-run Get: %d wrong values, %d prefilled keys missing (e.g. key %d)", o.wrong, o.lost, o.badKey)
		}
	}
	present, err := scan(w.t.Get)
	if err != nil {
		return err
	}
	for k := range present {
		want := w.inPre[k]
		for _, o := range w.workers {
			want = want || o.put[k]
		}
		if present[k] != want {
			return fmt.Errorf("key %d: present=%v, want %v (prefill ∪ stored keys)", k, present[k], want)
		}
	}
	if n, l := count(present), w.t.Len(); n != l {
		return fmt.Errorf("final size: %d keys found, Len %d", n, l)
	}
	return nil
}

func (w *treeRead) corrupt() { corruptFirst(w.t.Get, w.t.Put) }

// --- wfqueue-pinned: pinned guard, alternating enqueue / dequeue ---

// Queue values are producer<<producerShift | seq: the two workers produce
// 0 and 1, the prefill is producer 2 with seq = prefill index.
const (
	producerShift = 48
	prefillProd   = numWorkers
	numProducers  = numWorkers + 1
)

type queue struct {
	d       *wfe.Domain[uint64]
	q       *wfe.WFQueue[uint64]
	workers [numWorkers]*queueOps
}

// queueOps is one worker: a producer of its own seq run and a consumer
// that checks per-producer FIFO order and records every value it took.
type queueOps struct {
	d   *wfe.Domain[uint64]
	q   *wfe.WFQueue[uint64]
	st  *stream
	g   *wfe.Guard[uint64]
	id  uint64
	seq uint64 // values enqueued so far
	consumer
	_ pad
}

type consumer struct {
	seen  [numProducers]bitmap
	last  [numProducers]uint64 // 1 + last seq taken from each producer
	empty int                  // dequeues that found the queue empty
	err   error                // first ordering/duplication violation
}

func (c *consumer) take(v uint64) {
	p, seq := v>>producerShift, v&(1<<producerShift-1)
	switch {
	case p >= numProducers:
		c.fail(fmt.Errorf("dequeued foreign value %#x", v))
	case seq+1 <= c.last[p]:
		c.fail(fmt.Errorf("producer %d: seq %d dequeued after seq %d (FIFO or exactly-once violated)", p, seq, c.last[p]-1))
	default:
		c.last[p] = seq + 1
		c.seen[p].set(seq)
	}
}

func (c *consumer) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func newQueue(d *wfe.Domain[uint64], in *inputs) workload {
	w := &queue{d: d, q: wfe.NewWFQueue[uint64](d)}
	for i := range in.prefill {
		w.q.Enqueue(prefillProd<<producerShift | uint64(i))
	}
	for i := range w.workers {
		w.workers[i] = &queueOps{d: d, q: w.q, st: &in.streams[i], id: uint64(i)}
	}
	return w
}

func (w *queue) executor(i int) executor { return w.workers[i] }

func (o *queueOps) start(tr *tracer) {
	t0 := now()
	o.g = o.d.Pin()
	tr.single(spanPin, t0, now())
}

func (o *queueOps) stop(tr *tracer) {
	t0 := now()
	o.d.Unpin(o.g)
	tr.single(spanUnpin, t0, now())
	o.g = nil
}

func (o *queueOps) call(i int) (items, failed int) {
	if o.st.kinds[i] == opEnq {
		if err := o.q.TryEnqueueGuarded(o.g, o.id<<producerShift|o.seq); err != nil {
			return 1, 1
		}
		o.seq++
		return 1, 0
	}
	v, ok := o.q.DequeueGuarded(o.g)
	if !ok {
		o.empty++
		return 1, 0
	}
	o.take(v)
	return 1, 0
}

func (o *queueOps) traced(i int, tr *tracer) (items, failed int) {
	if tr == nil {
		return o.call(i)
	}
	t0 := now()
	items, failed = o.call(i)
	tr.pinnedOp(t0, now())
	return items, failed
}

func (w *queue) check() error {
	drain := &consumer{}
	g := w.d.Pin()
	for {
		v, ok := w.q.DequeueGuarded(g)
		if !ok {
			break
		}
		drain.take(v)
	}
	w.d.Unpin(g)
	if n := w.q.Len(); n != 0 {
		return fmt.Errorf("queue holds %d values after the drain", n)
	}
	cs := []*consumer{drain}
	produced := [numProducers]uint64{prefillProd: prefillN}
	for _, o := range w.workers {
		cs = append(cs, &o.consumer)
		produced[o.id] = o.seq
	}
	for _, c := range cs {
		if c.err != nil {
			return c.err
		}
		if c.empty > 0 {
			return fmt.Errorf("%d dequeues found the queue empty although it never drops below the prefill", c.empty)
		}
	}
	for p := range numProducers {
		var sets []bitmap
		for _, c := range cs {
			sets = append(sets, c.seen[p])
		}
		if err := exactlyOnce(sets, produced[p]); err != nil {
			return fmt.Errorf("producer %d: %w", p, err)
		}
	}
	return nil
}

// corrupt re-enqueues a prefill value the run has already taken, so the
// drain must report it twice.
func (w *queue) corrupt() { w.q.Enqueue(prefillProd<<producerShift | 0) }

// bitmap is a growable bit set of producer sequence numbers.
type bitmap []uint64

func (b *bitmap) set(i uint64) {
	w := int(i / 64)
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (i % 64)
}

// exactlyOnce checks that the sets are disjoint and their union is
// exactly [0, n).
func exactlyOnce(sets []bitmap, n uint64) error {
	words := int((n + 63) / 64)
	for _, s := range sets {
		words = max(words, len(s))
	}
	for w := range words {
		var union uint64
		for _, s := range sets {
			if w < len(s) {
				if union&s[w] != 0 {
					return fmt.Errorf("a value near seq %d was dequeued twice", w*64)
				}
				union |= s[w]
			}
		}
		var want uint64
		if lo := uint64(w) * 64; lo+64 <= n {
			want = ^uint64(0)
		} else if lo < n {
			want = 1<<(n-lo) - 1
		}
		if union != want {
			return fmt.Errorf("of %d values enqueued, the set dequeued differs near seq %d (lost or invented value)", n, w*64)
		}
	}
	return nil
}

// --- hashmap-batch: 32-key TryMultiPut / MultiDelete bursts ---

type batch struct {
	m       *wfe.HashMap[uint64]
	workers [numWorkers]*batchOps
}

type batchOps struct {
	m                 *wfe.HashMap[uint64]
	st                *stream
	putItems, deleted int
	_                 pad
}

func newBatch(d *wfe.Domain[uint64], in *inputs) workload {
	w := &batch{m: wfe.NewHashMap[uint64](d, keyRange)}
	for _, k := range in.prefill {
		w.m.Insert(k, k)
	}
	for i := range w.workers {
		w.workers[i] = &batchOps{m: w.m, st: &in.streams[i]}
	}
	return w
}

func (w *batch) executor(i int) executor { return w.workers[i] }

func (o *batchOps) start(*tracer) {}
func (o *batchOps) stop(*tracer)  {}

func (o *batchOps) call(i int) (items, failed int) {
	keys := o.st.batch(i)
	if o.st.kinds[i] == opPut {
		// Values equal keys, so the key slice doubles as the value slice.
		applied, err := o.m.TryMultiPut(keys, keys)
		o.putItems += applied
		if err != nil {
			return len(keys), len(keys) - applied
		}
		return len(keys), 0
	}
	for _, ok := range o.m.MultiDelete(keys) {
		if ok {
			o.deleted++
		}
	}
	return len(keys), 0
}

func (o *batchOps) traced(i int, tr *tracer) (items, failed int) {
	if tr == nil {
		return o.call(i)
	}
	t0 := now()
	items, failed = o.call(i)
	tr.batchOp(t0, now())
	return items, failed
}

func (w *batch) check() error {
	present := make([]bool, keyRange)
	keys := make([]uint64, batchWidth)
	for base := uint64(0); base < keyRange; base += batchWidth {
		keys = keys[:0]
		for k := base; k < min(base+batchWidth, keyRange); k++ {
			keys = append(keys, k)
		}
		vals, oks := w.m.MultiGet(keys)
		for i, k := range keys {
			if oks[i] && vals[i] != k {
				return fmt.Errorf("key %d reads value %d (use-after-free or lost update)", k, vals[i])
			}
			present[k] = oks[i]
		}
	}
	n, l := count(present), w.m.Len()
	if n != l {
		return fmt.Errorf("final size: %d keys found by MultiGet, Len %d", n, l)
	}
	stored, deleted := prefillN, 0
	for _, o := range w.workers {
		stored += o.putItems
		deleted += o.deleted
	}
	// Every present key was stored once more than it was deleted; a Put
	// that replaced an existing key counts in stored without adding one.
	if n > stored-deleted {
		return fmt.Errorf("%d keys present, but only %d stored minus %d deleted", n, stored, deleted)
	}
	return nil
}

func (w *batch) corrupt() { corruptFirst(w.m.Get, w.m.Put) }
