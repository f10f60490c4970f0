package core

import (
	"testing"

	"dhsketch/internal/store"
)

func TestStoreSetHas(t *testing.T) {
	s := store.New()
	k := TupleKey{Metric: 1, Vector: 2, Bit: 3}
	if s.Has(k, 0) {
		t.Error("empty store reports a bit")
	}
	s.Set(k, 100)
	if !s.Has(k, 0) || !s.Has(k, 100) {
		t.Error("stored bit not found before expiry")
	}
	if s.Has(k, 101) {
		t.Error("expired bit still reported")
	}
	// Expired lookup must garbage-collect the tuple.
	if s.Len(0) != 0 {
		t.Error("expired tuple not collected")
	}
}

func TestStoreRefreshExtendsExpiry(t *testing.T) {
	s := store.New()
	k := TupleKey{Metric: 9}
	s.Set(k, 10)
	s.Set(k, 50) // refresh
	if !s.Has(k, 30) {
		t.Error("refresh did not extend lifetime")
	}
}

func TestStoreVectorsWithBit(t *testing.T) {
	s := store.New()
	s.Set(TupleKey{Metric: 7, Vector: 0, Bit: 4}, 100)
	s.Set(TupleKey{Metric: 7, Vector: 3, Bit: 4}, 100)
	s.Set(TupleKey{Metric: 7, Vector: 5, Bit: 2}, 100) // different bit
	s.Set(TupleKey{Metric: 8, Vector: 1, Bit: 4}, 100) // different metric
	s.Set(TupleKey{Metric: 7, Vector: 9, Bit: 4}, 10)  // will expire

	// The probe answer is the leaf's bit words: vectors 0 and 3 of word 0.
	if got := s.AppendBitsWithBit(nil, 7, 4, 50); len(got) != 1 || got[0] != 1<<0|1<<3 {
		t.Errorf("AppendBitsWithBit = %b, want vectors {0,3}", got)
	}
}

func TestStoreLenAndBytes(t *testing.T) {
	s := store.New()
	s.Set(TupleKey{Vector: 1}, 100)
	s.Set(TupleKey{Vector: 2}, 10)
	if s.Len(0) != 2 {
		t.Errorf("Len = %d", s.Len(0))
	}
	if s.Len(50) != 1 {
		t.Errorf("Len after expiry = %d", s.Len(50))
	}
	if s.Bytes(50) != TupleBytes {
		t.Errorf("Bytes = %d", s.Bytes(50))
	}
}

func TestStoreOfAttaches(t *testing.T) {
	d, ring, _ := testDHS(t, 1, 4, Config{})
	n := ring.Nodes()[0]
	s1 := d.storeOf(n)
	s2 := d.storeOf(n)
	if s1 != s2 {
		t.Error("storeOf created two stores for one node")
	}
	s1.Set(TupleKey{Metric: 1}, 10)
	if !d.storeOf(n).Has(TupleKey{Metric: 1}, 0) {
		t.Error("state not persisted on node")
	}
}
