package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

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
			g, err := NewGeometry(Geometry{IDBits: 64, K: k, M: m, Kind: sketch.KindSuperLogLog, ShiftBits: tc.shift})
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
