package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
)

// scriptedPlacer is a Placer that records every call and fails the store
// attempts its script names, by store call number.
type scriptedPlacer struct {
	fail   map[int]bool
	stores int
	calls  []string
}

var errScripted = errors.New("scripted failure")

func (p *scriptedPlacer) Store(metric uint64, bit uint, target uint64, vectors []int32) error {
	n := p.stores
	p.stores++
	p.calls = append(p.calls, fmt.Sprintf("store m%d b%d %016x %v", metric, bit, target, vectors))
	if p.fail[n] {
		return fmt.Errorf("call %d: %w", n, errScripted)
	}
	return nil
}

func (p *scriptedPlacer) Wait(attempt int) {
	p.calls = append(p.calls, fmt.Sprintf("wait %d", attempt))
}

// TestPlaceContract holds Geometry.Place to the insertion rule over a
// scripted seam: groups by bit position, ascending, with the positions
// ShiftBits drops skipped; up to retries+1 attempts a group, each at the
// next target of the stream and each after the first behind a wait of its
// attempt number; the batch ends at the first group whose attempts all
// fail, with that group's last failure.
func TestPlaceContract(t *testing.T) {
	const k, m, metric, retries = 16, 16, 9, 2
	// item builds the key that splits into (vector, bit) at k = 16, m = 16.
	item := func(vector, bit uint) uint64 { return 1<<(bit+4) | uint64(vector) }
	type group struct {
		bit     uint
		vectors []int32
	}
	cases := []struct {
		name  string
		shift uint
		items []uint64
		fail  []int   // store calls, in order, that fail
		want  []group // one entry per store call
		waits []int   // the attempt each store call waits out first (0: none)
		err   int     // store call whose failure Place returns, or -1
	}{
		{
			name:  "one item",
			items: []uint64{item(3, 2)},
			want:  []group{{2, []int32{3}}},
			waits: []int{0},
			err:   -1,
		},
		{
			name:  "groups ascending, vectors distinct",
			items: []uint64{item(5, 4), item(1, 0), item(5, 4), item(2, 4), item(7, 0)},
			want:  []group{{0, []int32{1, 7}}, {4, []int32{2, 5}}},
			waits: []int{0, 0},
			err:   -1,
		},
		{
			name:  "shift drops low positions",
			shift: 2,
			items: []uint64{item(1, 0), item(2, 1), item(3, 2), item(4, 3)},
			want:  []group{{2, []int32{3}}, {3, []int32{4}}},
			waits: []int{0, 0},
			err:   -1,
		},
		{
			name:  "nothing stored",
			shift: 2,
			items: []uint64{item(1, 0), item(2, 1)},
			err:   -1,
		},
		{
			name:  "retries at fresh targets",
			items: []uint64{item(1, 1), item(2, 3)},
			fail:  []int{0, 1, 3},
			want:  []group{{1, []int32{1}}, {1, []int32{1}}, {1, []int32{1}}, {3, []int32{2}}, {3, []int32{2}}},
			waits: []int{0, 1, 2, 0, 1},
			err:   -1,
		},
		{
			name:  "exhausted group ends the batch",
			items: []uint64{item(1, 1), item(2, 3)},
			fail:  []int{0, 1, 2},
			want:  []group{{1, []int32{1}}, {1, []int32{1}}, {1, []int32{1}}},
			waits: []int{0, 1, 2},
			err:   2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := NewGeometry(Geometry{K: k, M: m, Kind: sketch.KindSuperLogLog, ShiftBits: tc.shift})
			if err != nil {
				t.Fatal(err)
			}
			p := &scriptedPlacer{fail: map[int]bool{}}
			for _, n := range tc.fail {
				p.fail[n] = true
			}
			rng := rand.New(rand.NewPCG(4, 5))
			got := g.Place(p, rng, metric, tc.items, retries)

			replay := rand.New(rand.NewPCG(4, 5))
			var want []string
			for i, grp := range tc.want {
				if tc.waits[i] > 0 {
					want = append(want, fmt.Sprintf("wait %d", tc.waits[i]))
				}
				want = append(want, fmt.Sprintf("store m%d b%d %016x %v", metric, grp.bit, g.Target(replay, grp.bit), grp.vectors))
			}
			if !reflect.DeepEqual(p.calls, want) {
				t.Errorf("calls:\n%q\nwant:\n%q", p.calls, want)
			}
			switch {
			case tc.err < 0 && got != nil:
				t.Errorf("Place = %v, want nil", got)
			case tc.err >= 0 && (!errors.Is(got, errScripted) || got.Error() != fmt.Sprintf("call %d: %v", tc.err, errScripted)):
				t.Errorf("Place = %v, want the failure of store call %d", got, tc.err)
			}
		})
	}
}

// TestPlaceOneMatchesBatch: Place of one item, which skips the grouping
// buffer and the sort, does what the grouped path does given that item
// twice. Over a scripted seam it makes the same calls at the same targets,
// through retries and an exhausted group; over twin rings, as InsertFrom
// and BulkInsertFrom, it leaves the same tuples on the same nodes at the
// same cost. Either way the random stream ends where the grouped path's
// does.
func TestPlaceOneMatchesBatch(t *testing.T) {
	t.Run("scripted", func(t *testing.T) {
		g, err := NewGeometry(Geometry{K: 16, M: 16, Kind: sketch.KindSuperLogLog})
		if err != nil {
			t.Fatal(err)
		}
		for _, fail := range [][]int{nil, {0, 1}, {0, 1, 2}} {
			for x := uint64(0); x < 200; x++ {
				id := x*0x9e3779b97f4a7c15 + 1
				var calls [2][]string
				var errs [2]error
				var next [2]uint64
				for i, items := range [][]uint64{{id}, {id, id}} {
					p := &scriptedPlacer{fail: map[int]bool{}}
					for _, n := range fail {
						p.fail[n] = true
					}
					rng := rand.New(rand.NewPCG(4, x))
					errs[i] = g.Place(p, rng, 9, items, 2)
					calls[i], next[i] = p.calls, rng.Uint64()
				}
				if !reflect.DeepEqual(calls[0], calls[1]) || (errs[0] == nil) != (errs[1] == nil) || next[0] != next[1] {
					t.Fatalf("fail %v item %x: one item made %q (%v), the batch %q (%v)", fail, id, calls[0], errs[0], calls[1], errs[1])
				}
			}
		}
	})
	t.Run("ring", func(t *testing.T) {
		var ds [2]*DHS
		for i := range ds {
			env := sim.NewEnv(3)
			d, err := New(Config{Overlay: chord.New(env, 64), Env: env, M: 16, Kind: sketch.KindSuperLogLog, Replication: 1})
			if err != nil {
				t.Fatal(err)
			}
			ds[i] = d
		}
		metric := MetricID("one")
		for x := 0; x < 300; x++ {
			id := ItemID(fmt.Sprintf("one-%d", x))
			one, err := ds[0].InsertFrom(ds[0].overlay.Nodes()[5], metric, id)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := ds[1].BulkInsertFrom(ds[1].overlay.Nodes()[5], metric, []uint64{id, id})
			if err != nil {
				t.Fatal(err)
			}
			if one != batch {
				t.Fatalf("item %d: InsertFrom cost %+v, the batch %+v", x, one, batch)
			}
		}
		for i, n := range ds[0].overlay.Nodes() {
			a, b := n.App(), ds[1].overlay.Nodes()[i].App()
			if (a == nil) != (b == nil) {
				t.Fatalf("node %d: one side holds a store, the other none", i)
			}
			if a != nil && !reflect.DeepEqual(a.(*Store).Keys(0), b.(*Store).Keys(0)) {
				t.Fatalf("node %d holds other tuples", i)
			}
		}
		if a, b := ds[0].rng.Uint64(), ds[1].rng.Uint64(); a != b {
			t.Errorf("the handles' streams parted: next draws %x and %x", a, b)
		}
	})
}

// TestInsertZeroAlloc: an untraced InsertFrom of an item already stored
// allocates nothing (DESIGN.md §12). Each insertion stores the tuple on a
// random node of its interval, so the item is first stored until every
// node there holds it.
func TestInsertZeroAlloc(t *testing.T) {
	env := sim.NewEnv(1)
	ring := chord.New(env, 64)
	d, err := New(Config{Overlay: ring, Env: env, M: 64, Kind: sketch.KindSuperLogLog})
	if err != nil {
		t.Fatal(err)
	}
	src, metric, id := ring.Nodes()[0], MetricID("zero"), ItemID("zero-1")
	for i := 0; i < 2000; i++ {
		if _, err := d.InsertFrom(src, metric, id); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() { d.InsertFrom(src, metric, id) }); n != 0 {
		t.Errorf("InsertFrom of a stored item allocated %.1f/op, want 0", n)
	}
}
