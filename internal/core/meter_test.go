package core

import (
	"reflect"
	"testing"

	"dhsketch/internal/dht"
	"dhsketch/internal/sim"
)

// TestMetersAreTypedAtomics pins where the no-torn-copy rule lives for
// the shared meters: go vet's copylocks check rejects a copy of a live
// meter only while every field is a sync/atomic type. A field turned
// back into a plain int64 would compile, pass vet, and tear.
func TestMetersAreTypedAtomics(t *testing.T) {
	for _, m := range []any{sim.Meter{}, dht.Counters{}, repairMeter{}} {
		typ := reflect.TypeOf(m)
		if typ.NumField() == 0 {
			t.Errorf("%v has no fields", typ)
		}
		for i := range typ.NumField() {
			if f := typ.Field(i); f.Type.PkgPath() != "sync/atomic" {
				t.Errorf("%v.%s is %v, want a sync/atomic type", typ, f.Name, f.Type)
			}
		}
	}
}
