package chord

import (
	"errors"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"dhsketch/internal/sim"
)

// checkTable fails unless t holds exactly the entries of want, its run
// starts mark exactly where an entry differs from the one below, and the
// heap holds one Ref for each run that starts below the top slots.
func checkTable(tb testing.TB, step string, t *fingerTable, want *[fingerBits]Ref) {
	tb.Helper()
	if got := t.expand(); got != *want {
		tb.Fatalf("%s: expand differs from the model", step)
	}
	for i := range want {
		first := i
		for first > 0 && want[first-1] == want[i] {
			first--
		}
		if r, f := t.get(i); r != want[i] || f != first {
			tb.Fatalf("%s: get(%d) = %v from slot %d, want %v from slot %d", step, i, r, f, want[i], first)
		}
	}
	if t.starts == 0 {
		return
	}
	for i := range want {
		if start := t.starts&(1<<i) != 0; start != (i == 0 || want[i] != want[i-1]) {
			tb.Fatalf("%s: starts %064b marks slot %d wrongly", step, t.starts, i)
		}
	}
	if n := bits.OnesCount64(t.starts & (1<<lowSlots - 1)); len(t.low) != n {
		tb.Fatalf("%s: %d low runs for %d run starts below the top slots", step, len(t.low), n)
	}
}

// TestFingerTableMatchesArrayModel drives random set sequences — from
// the zero table, from a filled one and from a loaded one — against a
// plain 64-entry array: every get and expand agrees with the array, and
// the runs stay maximal.
func TestFingerTableMatchesArrayModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 33))
	pool := []Ref{{}, {ID: 1, Addr: "a"}, {ID: 2, Addr: "b"}, {ID: 3, Addr: "c"}, {ID: 4, Addr: "d"}}
	for trial := 0; trial < 200; trial++ {
		var model [fingerBits]Ref
		var tab fingerTable
		switch trial % 3 {
		case 1:
			r := pool[rng.IntN(len(pool))]
			tab.fill(r)
			for i := range model {
				model[i] = r
			}
		case 2:
			for i := range model {
				model[i] = pool[rng.IntN(len(pool))]
			}
			tab.load(&model)
		}
		checkTable(t, "start", &tab, &model)
		for step := 0; step < 300; step++ {
			i, r := rng.IntN(fingerBits), pool[rng.IntN(len(pool))]
			if trial%5 == 0 { // clustered writes make and merge long runs
				i = rng.IntN(4) * 21
			}
			changed := tab.set(i, r)
			if changed != (model[i] != r) {
				t.Fatalf("trial %d step %d: set(%d) reported changed=%v", trial, step, i, changed)
			}
			model[i] = r
			checkTable(t, "set", &tab, &model)
		}
	}
}

// refCandidates is Route's candidate order written over a 64-entry
// table, one slot at a time: covering successors, then the preceding
// fingers from slot bits.Len64(dKey−1)−1 down, then the preceding
// successors.
func refCandidates(self uint64, succ []Ref, fingers *[fingerBits]Ref, key uint64) []Ref {
	dKey := dist(self, key)
	var out []Ref
	for _, sc := range succ {
		if sc.ID != self && dKey <= dist(self, sc.ID) {
			out = append(out, sc)
		}
	}
	for i := bits.Len64(dKey-1) - 1; i >= 0; i-- {
		if f := fingers[i]; f.Valid() && f.ID != self && dist(self, f.ID) < dKey {
			out = append(out, f)
		}
	}
	for _, sc := range succ {
		if sc.ID != self && dist(self, sc.ID) < dKey {
			out = append(out, sc)
		}
	}
	return out
}

// TestCandidateOrderMatchesSlotWalk holds candidate's walk over runs to
// the slot-by-slot order it replaced, on random tables and keys.
func TestCandidateOrderMatchesSlotWalk(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 5))
	const self = uint64(1) << 40
	for trial := 0; trial < 500; trial++ {
		refs := make([]Ref, 6)
		for k := range refs {
			refs[k] = Ref{ID: self + rng.Uint64()>>uint(rng.IntN(64)), Addr: string(rune('a' + k))}
		}
		refs[0] = Ref{}
		var fingers [fingerBits]Ref
		for i := range fingers {
			if i == 0 || rng.IntN(6) == 0 {
				fingers[i] = refs[rng.IntN(len(refs))]
			} else {
				fingers[i] = fingers[i-1]
			}
		}
		succ := []Ref{refs[1+rng.IntN(len(refs)-1)], refs[1+rng.IntN(len(refs)-1)]}
		m := NewMachine(Ref{ID: self, Addr: "self"}, ProtocolConfig{}, &sync.Mutex{})
		m.Seed(Ref{}, succ, fingers)
		key := self + rng.Uint64()>>uint(rng.IntN(64))
		if key == self {
			continue
		}
		want := refCandidates(self, succ, &fingers, key)
		var got []Ref
		for cur := (cursor{}); ; {
			c, _, own := m.candidate(&cur, key, dist(self, key))
			if own {
				t.Fatalf("trial %d: machine claims key %x", trial, key)
			}
			if !c.Valid() {
				break
			}
			got = append(got, c)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d candidates, want %d", trial, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("trial %d: candidate %d = %v, want %v", trial, j, got[j], want[j])
			}
		}
	}
}

// deadPeers answers every FindSucc but those to dead, and records each
// peer it was asked.
type deadPeers struct {
	memPeers
	dead  Ref
	asked []Ref
}

func (p *deadPeers) FindSucc(to Ref, _ uint64, hops, stale int, _ bool) (Found, error) {
	p.asked = append(p.asked, to)
	if to == p.dead {
		return Found{}, errors.New("down")
	}
	return Found{Owner: to, Hops: hops, Stale: stale}, nil
}

// TestDeadFingerOfferedOncePerSlot pins what a stale finger costs: a
// dead node filling slots 30–49 is tried once per slot below the key's,
// twenty stale hops, before the live finger under it answers.
func TestDeadFingerOfferedOncePerSlot(t *testing.T) {
	live := Ref{ID: 1 << 29, Addr: "live"}
	dead := Ref{ID: 1 << 49, Addr: "dead"}
	far := Ref{ID: 1<<63 + 5, Addr: "far"}
	var fingers [fingerBits]Ref
	for i := range fingers {
		switch {
		case i < 30:
			fingers[i] = live
		case i < 50:
			fingers[i] = dead
		default:
			fingers[i] = far
		}
	}
	m := NewMachine(Ref{ID: 0, Addr: "self"}, ProtocolConfig{}, &sync.Mutex{})
	m.Seed(Ref{}, []Ref{live}, fingers)
	p := &deadPeers{dead: dead}
	f := m.Route(p, 1<<55, 0, 0)
	if f.Owner != live || f.Hops != 21 || f.Stale != 20 {
		t.Fatalf("route = owner %q hops %d stale %d, want live 21 20", f.Owner.Addr, f.Hops, f.Stale)
	}
	if len(p.asked) != 21 || p.asked[19] != dead || p.asked[20] != live {
		t.Fatalf("asked %d peers, want dead ×20 then live", len(p.asked))
	}
}

// TestRingHeapPerNode pins the simulator's footprint: a converged ring
// of 1024 nodes retains at most 1 KiB a node, fingers included.
func TestRingHeapPerNode(t *testing.T) {
	const n = 1024
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := New(sim.NewEnv(1), n)
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	runtime.KeepAlive(r)
	t.Logf("chord.New(env, %d): %d B a node", n, per)
	if per > 1024 {
		t.Fatalf("chord.New(env, %d) retains %d B a node, want ≤ 1024", n, per)
	}
}
