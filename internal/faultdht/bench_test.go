package faultdht

import (
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/sim"
)

// BenchmarkRouteFrom times one routed lookup through the fault layer over
// a 1024-node static ring — the path E12F's counting passes route on —
// with no faults injected and with one message in twenty lost. Sources
// cycle through every node, keys through a fixed pseudo-random set.
func BenchmarkRouteFrom(b *testing.B) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"N1024", Config{}},
		{"N1024/drop0.05", Config{DropProb: 0.05}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			env := sim.NewEnv(1)
			o := New(chord.New(env, 1024), env, c.cfg)
			nodes := o.Nodes()
			rng := env.Derive("bench")
			keys := make([]uint64, 4096)
			for i := range keys {
				keys[i] = rng.Uint64()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.RouteFrom(nodes[i%len(nodes)], keys[i&4095])
			}
		})
	}
}
