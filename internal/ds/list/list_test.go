// Package list tests the Harris–Michael sorted list of the paper's
// Figures 6 and 9: a one-bucket public wfe.HashMap, whose single chain is
// exactly that list.
package list

import (
	"testing"

	"wfe"
	"wfe/internal/ds/pubtest"
)

func TestListSuite(t *testing.T) {
	pubtest.RunMapSuite(t, func(d *wfe.Domain[uint64]) pubtest.Map {
		return wfe.NewHashMap[uint64](d, 1)
	})
}

func newWFEList(t *testing.T) (*wfe.HashMap[uint64], *wfe.Domain[uint64]) {
	t.Helper()
	d := pubtest.NewDomain(t, "WFE", 2, 1<<12)
	return wfe.NewHashMap[uint64](d, 1), d
}

func TestListValues(t *testing.T) {
	l, _ := newWFEList(t)
	if !l.Insert(7, 700) {
		t.Fatal("insert failed")
	}
	if v, ok := l.Get(7); !ok || v != 700 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	l.Put(7, 701)
	if v, _ := l.Get(7); v != 701 {
		t.Fatalf("Put did not refresh: %d", v)
	}
	l.Put(8, 800)
	if v, _ := l.Get(8); v != 800 {
		t.Fatalf("Put did not insert: %d", v)
	}
}

func TestListSortedTraversal(t *testing.T) {
	l, _ := newWFEList(t)
	for _, k := range []uint64{5, 1, 9, 3, 7} {
		l.Insert(k, k)
	}
	if got := l.Len(); got != 5 {
		t.Fatalf("Len = %d", got)
	}
	// Deleting the middle keeps the rest reachable.
	l.Delete(5)
	for _, k := range []uint64{1, 3, 7, 9} {
		if _, ok := l.Get(k); !ok {
			t.Fatalf("key %d lost after unrelated delete", k)
		}
	}
	if _, ok := l.Get(5); ok {
		t.Fatal("deleted key reachable")
	}
}

func TestListReclaimsDeletedNodes(t *testing.T) {
	l, d := newWFEList(t)
	// Churn one key; retired nodes must be recycled, keeping the live
	// block count bounded.
	for i := 0; i < 2000; i++ {
		l.Insert(1, 1)
		l.Delete(1)
	}
	if live := d.ArenaCensus().Live; live > 200 {
		t.Fatalf("nodes not recycled: in use = %d after churn", live)
	}
}
