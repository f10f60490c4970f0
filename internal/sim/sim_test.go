package sim

import (
	"testing"
	"testing/quick"
)

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Error("fresh clock not at 0")
	}
	c.Advance(10)
	c.Advance(5)
	if c.Now() != 15 {
		t.Errorf("Now = %d, want 15", c.Now())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Advance(-1) should panic")
			}
		}()
		c.Advance(-1)
	}()
}

func TestTrafficAccount(t *testing.T) {
	var m Meter
	m.Account(3, 100) // 100-byte payload over 3 hops
	m.Account(1, 8)
	if tr := m.Snapshot(); tr.Messages != 2 || tr.Hops != 4 || tr.Bytes != 308 {
		t.Errorf("Traffic = %+v", tr)
	}
}

func TestTrafficSub(t *testing.T) {
	a := Traffic{Messages: 7, Hops: 13, Bytes: 140}
	b := Traffic{Messages: 2, Hops: 3, Bytes: 40}
	d := a.Sub(b)
	if d.Messages != 5 || d.Hops != 10 || d.Bytes != 100 {
		t.Errorf("Sub: %+v", d)
	}
}

func TestTrafficString(t *testing.T) {
	tr := Traffic{Messages: 1, Hops: 2, Bytes: 3}
	if got := tr.String(); got != "1 msgs / 2 hops / 3 bytes" {
		t.Errorf("String = %q", got)
	}
}

func TestEnvDeterminism(t *testing.T) {
	a := NewEnv(42)
	b := NewEnv(42)
	for i := 0; i < 100; i++ {
		if a.RNG().Uint64() != b.RNG().Uint64() {
			t.Fatal("same seed produced different primary streams")
		}
	}
	if NewEnv(42).Seed() != 42 {
		t.Error("Seed accessor mismatch")
	}
}

func TestEnvSeedsDiffer(t *testing.T) {
	a := NewEnv(1)
	b := NewEnv(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.RNG().Uint64() == b.RNG().Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/64 equal draws", same)
	}
}

func TestDeriveIndependentStreams(t *testing.T) {
	e := NewEnv(7)
	x := e.Derive("insert")
	y := e.Derive("count")
	x2 := NewEnv(7).Derive("insert")
	// Same purpose and seed → identical stream.
	for i := 0; i < 50; i++ {
		if x.Uint64() != x2.Uint64() {
			t.Fatal("Derive not reproducible")
		}
	}
	// Different purposes → different streams.
	same := 0
	for i := 0; i < 64; i++ {
		if e.Derive("a").Uint64() == y.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("derived streams overlap: %d/64 equal draws", same)
	}
}

func TestUniformIn(t *testing.T) {
	e := NewEnv(3)
	rng := e.RNG()
	f := func(lo uint64, rawSize uint64) bool {
		size := rawSize%1000 + 1
		if lo > ^uint64(0)-size {
			lo = ^uint64(0) - size // keep lo+size from wrapping
		}
		v := UniformIn(rng, lo, size)
		return v >= lo && v < lo+size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("UniformIn with empty interval should panic")
			}
		}()
		UniformIn(rng, 5, 0)
	}()
}

func TestUniformInCoversInterval(t *testing.T) {
	e := NewEnv(11)
	rng := e.RNG()
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		seen[UniformIn(rng, 100, 8)] = true
	}
	if len(seen) != 8 {
		t.Errorf("only %d/8 values of the interval were drawn", len(seen))
	}
}
