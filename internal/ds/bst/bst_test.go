// Package bst tests the public wfe.Tree, the external BST of the paper's
// Figures 8 and 11.
package bst

import (
	"math/rand"
	"testing"

	"wfe"
	"wfe/internal/ds/pubtest"
)

func TestBSTSuite(t *testing.T) {
	pubtest.RunMapSuite(t, func(d *wfe.Domain[uint64]) pubtest.Map {
		return wfe.NewTree[uint64](d)
	})
}

func newWFETree(t *testing.T) (*wfe.Tree[uint64], *wfe.Domain[uint64]) {
	t.Helper()
	d := pubtest.NewDomain(t, "WFE", 2, 1<<14)
	return wfe.NewTree[uint64](d), d
}

func TestBSTShapes(t *testing.T) {
	tr, _ := newWFETree(t)
	// Ascending, descending and zig-zag insertion orders must all work
	// (external BSTs do not rebalance, but routing must stay correct).
	keys := []uint64{50, 25, 75, 10, 30, 60, 90, 5, 15, 27, 35}
	for _, k := range keys {
		if !tr.Insert(k, k*10) {
			t.Fatalf("insert %d failed", k)
		}
	}
	if tr.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(keys))
	}
	for _, k := range keys {
		v, ok := tr.Get(k)
		if !ok || v != k*10 {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
	// Delete interior and leaf positions.
	for _, k := range []uint64{25, 5, 90, 50} {
		if !tr.Delete(k) {
			t.Fatalf("delete %d failed", k)
		}
		if _, ok := tr.Get(k); ok {
			t.Fatalf("key %d reachable after delete", k)
		}
	}
	if tr.Len() != len(keys)-4 {
		t.Fatalf("Len after deletes = %d", tr.Len())
	}
}

func TestBSTDrainToEmpty(t *testing.T) {
	tr, _ := newWFETree(t)
	rng := rand.New(rand.NewSource(7))
	keys := rng.Perm(200)
	for _, k := range keys {
		tr.Insert(uint64(k), uint64(k))
	}
	for _, k := range rng.Perm(200) {
		if !tr.Delete(uint64(k)) {
			t.Fatalf("delete %d failed", k)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("tree not empty: %d leaves", tr.Len())
	}
	// Reuse after a full drain.
	for _, k := range []uint64{3, 1, 4, 1, 5} {
		tr.Put(k, k)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len after refill = %d", tr.Len())
	}
}

func TestBSTReclaimsNodes(t *testing.T) {
	tr, d := newWFETree(t)
	for i := 0; i < 2000; i++ {
		tr.Insert(42, 1)
		tr.Delete(42)
	}
	if live := d.ArenaCensus().Live; live > 300 {
		t.Fatalf("BST churn leaked: %d blocks in use", live)
	}
}

func TestBSTValueRefresh(t *testing.T) {
	tr, _ := newWFETree(t)
	tr.Put(9, 1)
	tr.Put(9, 2)
	if v, ok := tr.Get(9); !ok || v != 2 {
		t.Fatalf("Get = %d,%v after refresh", v, ok)
	}
}
