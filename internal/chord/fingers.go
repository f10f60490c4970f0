package chord

import (
	"math/bits"
	"slices"
)

// fingerTable is a node's 64 finger entries stored as runs: slot i holds
// refs[k], where k+1 is the number of run starts at or below i. Entry i
// targets self+2^i, so on a ring of N nodes all but ≈ log₂ N of the
// entries repeat a neighbour, and a table holds its distinct fingers
// rather than 64 copies of a few. Two adjacent runs never hold the same
// Ref. The zero value is a table whose every entry is the zero Ref.
type fingerTable struct {
	starts uint64 // bit i set: slot i begins a run
	refs   []Ref  // one per run, in slot order
}

// fill makes every entry r.
func (t *fingerTable) fill(r Ref) {
	t.starts, t.refs = 1, []Ref{r}
}

// load replaces the table with the entries of a, allocating exactly one
// Ref per run.
func (t *fingerTable) load(a *[fingerBits]Ref) {
	var starts uint64 = 1
	for i := 1; i < fingerBits; i++ {
		if a[i] != a[i-1] {
			starts |= 1 << i
		}
	}
	refs := make([]Ref, 0, bits.OnesCount64(starts))
	for s := starts; s != 0; s &= s - 1 {
		refs = append(refs, a[bits.TrailingZeros64(s)])
	}
	t.starts, t.refs = starts, refs
}

// expand returns the table as 64 entries.
func (t *fingerTable) expand() (a [fingerBits]Ref) {
	for i := range a {
		a[i], _ = t.get(i)
	}
	return a
}

// get returns entry i and the first slot of the run that holds it.
func (t *fingerTable) get(i int) (r Ref, first int) {
	below := t.starts & (2<<uint(i) - 1)
	if below == 0 {
		return Ref{}, 0
	}
	return t.refs[bits.OnesCount64(below)-1], bits.Len64(below) - 1
}

// set makes entry i r, splitting the run that held it and merging equal
// neighbours, and reports whether the entry changed.
func (t *fingerTable) set(i int, r Ref) bool {
	if len(t.refs) == 0 {
		t.fill(Ref{})
	}
	bit := uint64(1) << uint(i)
	below := t.starts & (2*bit - 1)
	k := bits.OnesCount64(below) - 1
	old := t.refs[k]
	if old == r {
		return false
	}
	first := t.starts&bit != 0
	last := i == fingerBits-1 || t.starts&(bit<<1) != 0
	switch {
	case first && last:
		t.refs[k] = r
	case first: // r takes the run's first slot, old keeps the rest
		t.refs = slices.Insert(t.refs, k, r)
	case last: // old keeps the run up to i, r takes its last slot
		k++
		t.refs = slices.Insert(t.refs, k, r)
	default: // r splits the run in two
		k++
		t.refs = slices.Insert(t.refs, k, r, old)
	}
	t.starts |= bit | bit<<1 // bit<<1 is 0 past the last slot
	if k+1 < len(t.refs) && t.refs[k+1] == r {
		t.refs = slices.Delete(t.refs, k+1, k+2)
		t.starts &^= bit << 1
	}
	if k > 0 && t.refs[k-1] == r {
		t.refs = slices.Delete(t.refs, k, k+1)
		t.starts &^= bit
	}
	return true
}
