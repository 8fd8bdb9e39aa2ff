// Package msqueue tests the public wfe.Queue, the Michael–Scott queue,
// against the shared queue conformance suite.
package msqueue

import (
	"testing"

	"wfe"
	"wfe/internal/ds/pubtest"
	"wfe/internal/ds/queuetest"
)

// tidQueue drives a public Queue by fixed tid: each tid owns one guard
// for the queue's whole life.
type tidQueue struct {
	q      *wfe.Queue[uint64]
	guards []*wfe.Guard[uint64]
}

func (q tidQueue) Enqueue(tid int, v uint64) bool {
	return q.q.TryEnqueueGuarded(q.guards[tid], v) == nil
}
func (q tidQueue) Dequeue(tid int) (uint64, bool) { return q.q.DequeueGuarded(q.guards[tid]) }

func TestMSQueueSuite(t *testing.T) {
	queuetest.RunSuite(t, func(t testing.TB, scheme string, threads, capacity int) (queuetest.Queue, func() int) {
		d := pubtest.NewDomain(t, scheme, threads, capacity)
		q := tidQueue{q: wfe.NewQueue[uint64](d)}
		for range threads {
			q.guards = append(q.guards, d.Guard())
		}
		t.Cleanup(func() {
			for _, g := range q.guards {
				g.Release()
			}
		})
		return q, func() int { return d.ArenaCensus().Live }
	})
}
