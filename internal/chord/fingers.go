package chord

import (
	"math/bits"
	"slices"
)

// fingerTop is how many of the highest slots a table keeps one entry a
// slot, inside itself and so inside its node. A route reads the slot
// below the key's distance, so a hop finds the address of its finger from
// the key and the node's identifier alone, and waits for one line of the
// node rather than for its run starts first. On a ring of N nodes the top
// ≈ log₂ N slots hold the distinct fingers: slots 52–63 at N = 1024.
const fingerTop = 12

// lowSlots is the number of slots below the top ones.
const lowSlots = fingerBits - fingerTop

// fingerTable is a node's 64 finger entries. Entry i targets self+2^i, so
// on a ring of N nodes all but ≈ log₂ N of the entries repeat a
// neighbour: below the top slots the table keeps runs of equal entries,
// one Ref a run, rather than a Ref a slot. Two adjacent runs never hold the
// same Ref. The zero value is a table whose every entry is the zero Ref.
type fingerTable struct {
	starts uint64 // bit i set: slot i begins a run
	// top[j] is entry fingerBits-1-j; low holds the runs that begin below
	// the top slots, in slot order, so slot i < lowSlots is low[k] where
	// k+1 is the number of run starts at or below i.
	top [fingerTop]Ref
	low []Ref
}

// fill makes every entry r.
func (t *fingerTable) fill(r Ref) {
	var a [fingerBits]Ref
	for i := range a {
		a[i] = r
	}
	t.load(&a)
}

// load replaces the table with the entries of a.
func (t *fingerTable) load(a *[fingerBits]Ref) {
	var starts uint64 = 1
	for i := 1; i < fingerBits; i++ {
		if a[i] != a[i-1] {
			starts |= 1 << i
		}
	}
	t.starts = starts
	for j := range t.top {
		t.top[j] = a[fingerBits-1-j]
	}
	t.low = t.low[:0]
	for s := starts & (1<<lowSlots - 1); s != 0; s &= s - 1 {
		t.low = append(t.low, a[bits.TrailingZeros64(s)])
	}
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
	if i >= lowSlots {
		return t.top[fingerBits-1-i], bits.Len64(below) - 1
	}
	return t.low[bits.OnesCount64(below)-1], bits.Len64(below) - 1
}

// find returns the first entry is accepts.
func (t *fingerTable) find(is func(Ref) bool) (Ref, bool) {
	if t.starts == 0 {
		return Ref{}, false
	}
	if i := slices.IndexFunc(t.low, is); i >= 0 {
		return t.low[i], true
	}
	if i := slices.IndexFunc(t.top[:], is); i >= 0 {
		return t.top[i], true
	}
	return Ref{}, false
}

// set makes entry i r, rebuilding the table around it, and reports
// whether the entry changed.
func (t *fingerTable) set(i int, r Ref) bool {
	if old, _ := t.get(i); old == r {
		return false
	}
	a := t.expand()
	a[i] = r
	t.load(&a)
	return true
}
