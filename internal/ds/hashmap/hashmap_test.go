// Package hashmap tests the public wfe.HashMap, the Michael hash map of the
// paper's Figures 7 and 10.
package hashmap

import (
	"testing"

	"wfe"
	"wfe/internal/ds/pubtest"
)

func TestHashMapSuite(t *testing.T) {
	pubtest.RunMapSuite(t, func(d *wfe.Domain[uint64]) pubtest.Map {
		return wfe.NewHashMap[uint64](d, 64)
	})
}

func TestSingleBucketDegeneratesToList(t *testing.T) {
	// With one bucket every key collides; the map must still be correct.
	pubtest.RunMapSuite(t, func(d *wfe.Domain[uint64]) pubtest.Map {
		return wfe.NewHashMap[uint64](d, 1)
	})
}

func TestBucketRounding(t *testing.T) {
	d := pubtest.NewDomain(t, "WFE", 1, 1<<10)
	m := wfe.NewHashMap[uint64](d, 100) // rounds to 128
	for k := uint64(0); k < 500; k++ {
		if !m.Insert(k, k) {
			t.Fatalf("insert %d failed", k)
		}
	}
	if m.Len() != 500 {
		t.Fatalf("Len = %d", m.Len())
	}
	for k := uint64(0); k < 500; k++ {
		if v, ok := m.Get(k); !ok || v != k {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
}
