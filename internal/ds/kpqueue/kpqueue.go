// Package kpqueue implements the Kogan–Petrank wait-free queue (PPoPP 2011)
// over the reclamation interface. The paper highlights this structure: the
// original relies on a garbage collector, and WFE makes it, for the first
// time, fully wait-free including reclamation (Figure 5a/5b).
//
// The queue is Michael–Scott shaped with phase-based helping: every
// operation publishes an operation descriptor, computes a phase higher than
// every phase it can see, and then helps all pending operations with lower
// or equal phases before its own completes. Dequeues claim the current
// sentinel by CASing its deqTid field; the claimed sentinel's successor
// carries the returned value and becomes the new sentinel.
//
// The per-thread descriptor — the paper's {phase, pending, enqueue, node} —
// packs into one word with the node handle in the low bits, which doubles
// as the hazard target for the HP scheme.
package kpqueue

import (
	"sync/atomic"

	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
)

const (
	nextWord    = 0 // successor link
	deqTidWord  = 1 // claiming dequeuer + 1; 0 = unclaimed
	enqTidWord  = 2 // enqueuer + 1 (set before publication)
	handoffWord = 3 // dequeued value, copied in from the successor

	// descriptor layout: | phase (36) | enqueue (1) | pending (1) | node (26) |
	descPendingBit = 1 << pack.PtrBits
	descEnqueueBit = 1 << (pack.PtrBits + 1)
	descPhaseShift = pack.PtrBits + 2
)

func makeDesc(phase uint64, pending, enqueue bool, node mem.Handle) uint64 {
	d := phase<<descPhaseShift | node&pack.PtrMask
	if pending {
		d |= descPendingBit
	}
	if enqueue {
		d |= descEnqueueBit
	}
	return d
}

func descPhase(d uint64) uint64    { return d >> descPhaseShift }
func descPending(d uint64) bool    { return d&descPendingBit != 0 }
func descEnqueue(d uint64) bool    { return d&descEnqueueBit != 0 }
func descNode(d uint64) mem.Handle { return d & pack.HandleMask }

// reservation indices
const (
	hpFirst = 0 // head snapshot
	hpLast  = 1 // tail snapshot
	hpNext  = 2 // successor of head/tail
)

type stateSlot struct {
	desc atomic.Uint64
	_    [56]byte
}

// Queue is a wait-free multi-producer multi-consumer FIFO queue.
type Queue struct {
	smr        reclaim.Scheme
	maxThreads int
	head       atomic.Uint64 // sentinel handle
	tail       atomic.Uint64
	state      []stateSlot
}

// New creates an empty queue for up to maxThreads registered threads; the
// initial sentinel is allocated on behalf of thread 0.
func New(smr reclaim.Scheme, maxThreads int) *Queue {
	return NewTid(smr, maxThreads, 0)
}

// NewTid is New with the sentinel allocated on behalf of tid — the export
// hook for the public façade, whose constructor runs under a leased guard
// holding an arbitrary tid while other tids may be allocating concurrently.
func NewTid(smr reclaim.Scheme, maxThreads, tid int) *Queue {
	q := &Queue{smr: smr, maxThreads: maxThreads, state: make([]stateSlot, maxThreads)}
	a := smr.Arena()
	s, ok := smr.Alloc(tid)
	if !ok {
		panic("kpqueue: arena exhausted allocating the sentinel")
	}
	a.StoreWord(s, nextWord, 0)
	a.StoreWord(s, deqTidWord, 0)
	a.StoreWord(s, enqTidWord, 0)
	q.head.Store(s)
	q.tail.Store(s)
	for i := range q.state {
		q.state[i].desc.Store(makeDesc(0, false, true, 0))
	}
	return q
}

// maxPhase scans every descriptor for the highest announced phase.
func (q *Queue) maxPhase() uint64 {
	var max uint64
	for i := 0; i < q.maxThreads; i++ {
		if p := descPhase(q.state[i].desc.Load()); p > max {
			max = p
		}
	}
	return max
}

func (q *Queue) isStillPending(i int, phase uint64) bool {
	d := q.state[i].desc.Load()
	return descPending(d) && descPhase(d) <= phase
}

// Enqueue appends v to the queue. The node is allocated before the
// operation's Begin, so an allocation stalled on an exhausted arena holds
// no reservation that could pin the blocks its rescue depends on. When
// the allocator reports exhaustion, Enqueue returns false and leaves the
// queue untouched.
func (q *Queue) Enqueue(tid int, v uint64) bool {
	a := q.smr.Arena()
	node, ok := q.smr.Alloc(tid)
	if !ok {
		return false
	}
	a.SetVal(node, v)
	a.StoreWord(node, nextWord, 0)
	a.StoreWord(node, deqTidWord, 0)
	a.StoreWord(node, enqTidWord, uint64(tid)+1)

	q.smr.Begin(tid)
	defer q.smr.Clear(tid)
	phase := q.maxPhase() + 1
	q.state[tid].desc.Store(makeDesc(phase, true, true, node))
	q.help(tid, phase)
	q.helpFinishEnq(tid)
	return true
}

// Dequeue removes and returns the oldest value; ok is false when empty.
func (q *Queue) Dequeue(tid int) (v uint64, ok bool) {
	q.smr.Begin(tid)
	defer q.smr.Clear(tid)
	a := q.smr.Arena()

	phase := q.maxPhase() + 1
	q.state[tid].desc.Store(makeDesc(phase, true, false, 0))
	q.help(tid, phase)
	q.helpFinishDeq(tid)

	node := descNode(q.state[tid].desc.Load())
	if node == 0 {
		return 0, false // empty at linearization
	}
	// node is the sentinel we claimed. The value logically travels in its
	// successor, but by now the successor may already have been claimed,
	// retired and freed by a later dequeue — so helpDeq copied the value
	// into our node's handoff word before the claim CAS, while both nodes
	// were provably protected. We only ever read our own claimed node,
	// which cannot be freed before we retire it here.
	v = a.LoadWord(node, handoffWord)
	q.smr.Retire(tid, node)
	return v, true
}

// help completes every pending operation whose phase is at most phase
// (the Kogan–Petrank helping discipline that yields wait-freedom).
func (q *Queue) help(tid int, phase uint64) {
	for i := 0; i < q.maxThreads; i++ {
		d := q.state[i].desc.Load()
		if descPending(d) && descPhase(d) <= phase {
			if descEnqueue(d) {
				q.helpEnq(tid, i, descPhase(d))
			} else {
				q.helpDeq(tid, i, descPhase(d))
			}
		}
	}
}

func (q *Queue) helpEnq(tid, i int, phase uint64) {
	a := q.smr.Arena()
	for q.isStillPending(i, phase) {
		last := pack.Handle(q.smr.GetProtected(tid, &q.tail, hpLast, 0))
		next := pack.Handle(q.smr.GetProtected(tid, a.WordAddr(last, nextWord), hpNext, last))
		if last != q.tail.Load() {
			continue
		}
		if next == 0 {
			if q.isStillPending(i, phase) {
				node := descNode(q.state[i].desc.Load())
				if node != 0 && a.CASWord(last, nextWord, 0, node) {
					q.helpFinishEnq(tid)
					return
				}
			}
		} else {
			q.helpFinishEnq(tid) // tail is lagging; advance it first
		}
	}
}

func (q *Queue) helpFinishEnq(tid int) {
	a := q.smr.Arena()
	last := pack.Handle(q.smr.GetProtected(tid, &q.tail, hpLast, 0))
	next := pack.Handle(q.smr.GetProtected(tid, a.WordAddr(last, nextWord), hpNext, last))
	if last != q.tail.Load() || next == 0 {
		return
	}
	enqTid := int(a.LoadWord(next, enqTidWord)) - 1
	if enqTid < 0 {
		return
	}
	curDesc := q.state[enqTid].desc.Load()
	if last == q.tail.Load() && descNode(curDesc) == next {
		// Keep node == next in the completed descriptor so stragglers can
		// still advance the tail below.
		q.state[enqTid].desc.CompareAndSwap(curDesc,
			makeDesc(descPhase(curDesc), false, true, next))
		q.tail.CompareAndSwap(last, next)
	}
}

func (q *Queue) helpDeq(tid, i int, phase uint64) {
	a := q.smr.Arena()
	for q.isStillPending(i, phase) {
		first := pack.Handle(q.smr.GetProtected(tid, &q.head, hpFirst, 0))
		last := q.tail.Load()
		next := pack.Handle(q.smr.GetProtected(tid, a.WordAddr(first, nextWord), hpNext, first))
		if first != q.head.Load() {
			continue
		}
		if first == pack.Handle(last) {
			if next == 0 { // queue empty: complete with a nil node
				curDesc := q.state[i].desc.Load()
				if pack.Handle(last) == pack.Handle(q.tail.Load()) && q.isStillPending(i, phase) {
					q.state[i].desc.CompareAndSwap(curDesc,
						makeDesc(descPhase(curDesc), false, false, 0))
				}
			} else {
				q.helpFinishEnq(tid) // tail lagging behind a concurrent enqueue
			}
			continue
		}
		if next == 0 {
			continue // stale tail snapshot; re-read a consistent window
		}
		curDesc := q.state[i].desc.Load()
		node := descNode(curDesc)
		if !q.isStillPending(i, phase) {
			break
		}
		if first == pack.Handle(q.head.Load()) && node != first {
			// Record the sentinel this dequeue is about to claim.
			if !q.state[i].desc.CompareAndSwap(curDesc,
				makeDesc(descPhase(curDesc), true, false, first)) {
				continue
			}
		}
		// Hand the successor's value over to the sentinel before claiming:
		// `next` is reachable (head == first was validated after protecting
		// it), so it is not yet retired and our reservations keep it alive
		// for this copy; the successor's own value word is immutable, so
		// every helper writes the same value here.
		a.StoreWord(first, handoffWord, a.Val(next))
		a.CASWord(first, deqTidWord, 0, uint64(i)+1)
		q.helpFinishDeq(tid)
	}
}

func (q *Queue) helpFinishDeq(tid int) {
	a := q.smr.Arena()
	first := pack.Handle(q.smr.GetProtected(tid, &q.head, hpFirst, 0))
	next := pack.Handle(q.smr.GetProtected(tid, a.WordAddr(first, nextWord), hpNext, first))
	claim := a.LoadWord(first, deqTidWord)
	if claim == 0 {
		return
	}
	deqTid := int(claim) - 1
	curDesc := q.state[deqTid].desc.Load()
	if first == pack.Handle(q.head.Load()) && next != 0 {
		q.state[deqTid].desc.CompareAndSwap(curDesc,
			makeDesc(descPhase(curDesc), false, false, descNode(curDesc)))
		q.head.CompareAndSwap(first, next)
	}
}

// Len counts queued values; meaningful only quiescently.
func (q *Queue) Len() int {
	a := q.smr.Arena()
	n := 0
	h := pack.Handle(q.head.Load())
	for h != 0 {
		next := pack.Handle(a.LoadWord(h, nextWord))
		if next != 0 {
			n++ // every node except the sentinel holds a live value
		}
		h = next
	}
	return n
}
