// Package wfe is a Go reproduction of "Universal Wait-Free Memory
// Reclamation" (Nikolaev & Ravindran, PPoPP 2020): the Wait-Free Eras (WFE)
// scheme, the baselines it is evaluated against (Hazard Eras, Hazard
// Pointers, epoch-based reclamation, 2GEIBR interval-based reclamation and
// a leaky baseline), the six concurrent data structures of the paper's
// evaluation, and the benchmark harness that regenerates every figure.
//
// # Public API
//
// The package's public face is the generic Domain layer:
//
//   - Domain[T] — a typed arena of T-valued blocks plus the reclamation
//     scheme (chosen by SchemeKind) that decides when retired blocks may be
//     recycled. NewDomain is the entry point for every scheme.
//   - Guard — one goroutine's handle on a Domain, owning one of the
//     scheme's thread slots (the paper's tid): all allocation (Alloc),
//     protected reads
//     (Protect/ProtectWord), retirement (Retire) and operation brackets
//     (Begin/End) go through it.
//   - Ref[T] and Atomic[T] — typed block references (with mark- and
//     flag-bit support for logical deletion and the Natarajan–Mittal
//     tag) and atomic root links, replacing the raw uint64 handle
//     plumbing of the internal layer.
//   - Stack[T] and Queue[T] — Treiber stack and Michael–Scott queue,
//     pre-built on the Domain primitives.
//   - WFQueue[T] and TurnQueue[T] — the paper's two wait-free queues
//     (Kogan–Petrank and CRTurn, Figure 5): combined with the WFE scheme
//     they are wait-free end to end, reclamation included.
//   - HashMap[T] (alias Map[T]) and Tree[T] — Michael's hash map and the
//     Natarajan–Mittal external BST, the paper's search-structure
//     workloads (Figures 7, 8, 10, 11).
//
// The guard runtime decouples goroutines from the paper's fixed thread
// slots: the structures' plain methods are guardless (each operation
// leases a slot from a lock-free pool, parking when all are held),
// Domain.Pin/Unpin amortize that lease over many operations, and
// Domain.Guard/TryGuard/AcquireGuard hand out explicit Guards for fixed
// worker sets. See the Guard type's documentation for the full picture.
//
// Guard.Batch and its guardless twin Domain.Batch are the one batching
// entry point: a closure of Guarded calls runs under one lease, one
// protection span and one retire burst, and keeps its own results.
// Inside a batch, allocate before protecting: a stalled allocation drops
// the batch's protections while the emergency pipeline runs (see
// Guard.TryAlloc). HashMap.MultiGet, MultiDelete and TryMultiPut are
// thin loops over Domain.Batch.
//
// See ExampleDomain for the quickstart and ExampleGuard for building a
// custom structure on the primitives.
//
// # Layout
//
//	domain.go           Domain[T], Guard, Ref[T], Atomic[T], SchemeKind
//	batch.go            Guard.Batch and Domain.Batch
//	stack.go            public Treiber stack
//	queue.go            public Michael–Scott queue
//	wfqueue.go          public Kogan–Petrank and CRTurn wait-free queues
//	hashmap.go          public lock-free hash map (HashMap)
//	map.go              Map, the hash map's original alias
//	tree.go             public Natarajan–Mittal BST
//	internal/core       WFE, the paper's contribution (Figure 4)
//	internal/he         Hazard Eras (Figure 1)
//	internal/hp         Hazard Pointers
//	internal/ebr        epoch-based reclamation
//	internal/ibr        2GEIBR interval-based reclamation
//	internal/leak       leaky baseline
//	internal/mem        manual-memory arena substrate
//	internal/pack       64-bit packing emulating the paper's wide CAS
//	internal/reclaim    the shared SMR interface and configuration
//	internal/guardpool  lock-free tid freelist + parking (the guard runtime)
//	internal/ds/...     Kogan–Petrank and CRTurn word queues (inside WFQueue
//	                    and TurnQueue), the shared queue and map conformance
//	                    suites, and test-only packages running them on the
//	                    public structures
//	internal/bench      workload generator and per-figure experiment runner
//	cmd/wfebench        regenerates Figures 5–11 and the ablations
//	cmd/wfestress       correctness stress tool (forced slow path, stalls)
//	cmd/wfelat          per-operation latency comparison of the queues
//	examples/...        runnable walkthroughs of the public API
//
// There is one implementation per structure: the benchmark harness, the
// conformance and fuzz suites and users all run the public types above.
// Only the two wait-free queues keep an internal core (internal/ds), word
// queues driven by the guard's tid that WFQueue and TurnQueue wrap with a
// value box. conformance_test.go runs every structure through every
// scheme × acquisition path. The benchmarks in bench_test.go measure one
// configuration per paper figure on pinned guards; cmd/wfebench performs
// the full thread sweeps, including the guardless workloads experiment
// (-ablation workloads).
package wfe
