package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"wfe"
)

// Structure adapts one public structure to the benchmark's key-value
// operation set; keys double as values. Every operation takes the guard
// the caller drives it with: a pinned guard selects the Guarded method,
// nil the guardless one (which leases per call, so the lease path is
// part of what is measured). Queues ignore the key on Delete and panic
// on Get/Put. cmd/wfestress shares the same adapters for its storms.
type Structure interface {
	Insert(g *wfe.Guard[uint64], k uint64) bool
	Delete(g *wfe.Guard[uint64], k uint64) bool
	Get(g *wfe.Guard[uint64], k uint64) bool
	Put(g *wfe.Guard[uint64], k uint64)
	Len() int
}

// fifo is the operation set the two wait-free queues share.
type fifo interface {
	Enqueue(v uint64)
	EnqueueGuarded(g *wfe.Guard[uint64], v uint64)
	Dequeue() (uint64, bool)
	DequeueGuarded(g *wfe.Guard[uint64]) (uint64, bool)
	Len() int
}

type queueKV struct{ q fifo }

func (p queueKV) Insert(g *wfe.Guard[uint64], k uint64) bool {
	if g == nil {
		p.q.Enqueue(k)
	} else {
		p.q.EnqueueGuarded(g, k)
	}
	return true
}

func (p queueKV) Delete(g *wfe.Guard[uint64], k uint64) (ok bool) {
	if g == nil {
		_, ok = p.q.Dequeue()
	} else {
		_, ok = p.q.DequeueGuarded(g)
	}
	return ok
}

func (p queueKV) Get(*wfe.Guard[uint64], uint64) bool { panic("bench: queues have no Get") }
func (p queueKV) Put(*wfe.Guard[uint64], uint64)      { panic("bench: queues have no Put") }
func (p queueKV) Len() int                            { return p.q.Len() }

// search is the operation set HashMap and Tree share.
type search interface {
	Insert(k, v uint64) bool
	InsertGuarded(g *wfe.Guard[uint64], k, v uint64) bool
	Delete(k uint64) bool
	DeleteGuarded(g *wfe.Guard[uint64], k uint64) bool
	Get(k uint64) (uint64, bool)
	GetGuarded(g *wfe.Guard[uint64], k uint64) (uint64, bool)
	Put(k, v uint64)
	PutGuarded(g *wfe.Guard[uint64], k, v uint64)
	Len() int
}

type searchKV struct{ m search }

func (p searchKV) Insert(g *wfe.Guard[uint64], k uint64) bool {
	if g == nil {
		return p.m.Insert(k, k)
	}
	return p.m.InsertGuarded(g, k, k)
}

func (p searchKV) Delete(g *wfe.Guard[uint64], k uint64) bool {
	if g == nil {
		return p.m.Delete(k)
	}
	return p.m.DeleteGuarded(g, k)
}

func (p searchKV) Get(g *wfe.Guard[uint64], k uint64) (ok bool) {
	if g == nil {
		_, ok = p.m.Get(k)
	} else {
		_, ok = p.m.GetGuarded(g, k)
	}
	return ok
}

func (p searchKV) Put(g *wfe.Guard[uint64], k uint64) {
	if g == nil {
		p.m.Put(k, k)
	} else {
		p.m.PutGuarded(g, k, k)
	}
}

func (p searchKV) Len() int { return p.m.Len() }

// Setup builds the named structure on d — "wfqueue", "turnqueue",
// "hashmap" (opt.KeyRange buckets), "list" (a one-bucket HashMap, whose
// bucket is a Harris–Michael sorted list) or "tree" — and prefills it
// with opt.Prefill elements from [0, opt.KeyRange), the paper's §5
// methodology: random enqueues for the queues, distinct keys for the
// search structures. It uses one pinned guard, so call it before any
// concurrent use.
func Setup(name string, d *wfe.Domain[uint64], opt Options) Structure {
	var s Structure
	switch name {
	case "wfqueue":
		s = queueKV{wfe.NewWFQueue[uint64](d)}
	case "turnqueue":
		s = queueKV{wfe.NewTurnQueue[uint64](d)}
	case "hashmap":
		s = searchKV{wfe.NewHashMap[uint64](d, int(opt.KeyRange))}
	case "list":
		s = searchKV{wfe.NewHashMap[uint64](d, 1)}
	case "tree":
		s = searchKV{wfe.NewTree[uint64](d)}
	default:
		panic("bench: unknown structure " + name)
	}
	prefill(name, s, d, opt)
	return s
}

// prefill loads Setup's initial elements into the named structure s.
func prefill(name string, s Structure, d *wfe.Domain[uint64], opt Options) {
	if opt.Prefill == 0 {
		return
	}
	g := d.Pin()
	defer d.Unpin(g)
	rng := rand.New(rand.NewSource(12345))
	if IsQueue(name) {
		for i := 0; i < opt.Prefill; i++ {
			s.Insert(g, uint64(rng.Int63n(int64(opt.KeyRange))))
		}
		return
	}
	keys := prefillKeys(opt.Prefill, opt.KeyRange, rng)
	if name == "tree" {
		// Each subrange's median before its halves: one-by-one insertion
		// then builds the balanced tree a bulk load would, where random
		// order leaves it deeper.
		keys = midpointOrder(keys, make([]uint64, 0, len(keys)))
	} else {
		// Descending, so every insert lands at its bucket's head in O(1)
		// — a sorted prefill of the one-bucket list would be quadratic.
		for i, j := 0, len(keys)-1; i < j; i, j = i+1, j-1 {
			keys[i], keys[j] = keys[j], keys[i]
		}
	}
	for _, k := range keys {
		s.Insert(g, k)
	}
}

// midpointOrder appends sorted keys to out in level order of the balanced
// tree over them: the median first, then each half's order recursively.
func midpointOrder(sorted, out []uint64) []uint64 {
	if len(sorted) == 0 {
		return out
	}
	mid := len(sorted) / 2
	out = append(out, sorted[mid])
	out = midpointOrder(sorted[:mid], out)
	return midpointOrder(sorted[mid+1:], out)
}

// LeakExhausted reports whether a recovered worker panic is the leak
// baseline legitimately filling its fixed arena — the one panic the bench
// sweep and cmd/wfestress treat as a benign early end rather than a bug.
// The panic value is either the arena's own string (the raw mem.Arena
// path) or an error wrapping wfe.ErrArenaExhausted (the Domain's
// backpressure path, which skips emergency scans for Leak — there is no
// judge to scan with).
func LeakExhausted(r any, kind wfe.SchemeKind) bool {
	if kind != wfe.Leak {
		return false
	}
	if err, ok := r.(error); ok && errors.Is(err, wfe.ErrArenaExhausted) {
		return true
	}
	return strings.Contains(fmt.Sprint(r), "arena exhausted")
}

// Workloads sweeps the Figure 5 queues and the Figure 7/8 search
// structures over every scheme (WFE-IBR included) and the requested
// goroutine counts in the paper's write-heavy mix, driving every
// operation through the guardless API so the guard runtime's lease path
// is part of the measurement (cmd/wfebench -ablation workloads).
func Workloads(opt Options) []Result {
	var schemes []string
	for _, kind := range wfe.AllSchemes() {
		schemes = append(schemes, kind.String())
	}
	var out []Result
	for _, id := range []string{"5a", "5c", "7", "8"} {
		exp, _ := FindExperiment(id)
		exp.Schemes = schemes
		out = append(out, run(exp, opt, true)...)
	}
	return out
}
