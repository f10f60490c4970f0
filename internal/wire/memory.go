package wire

// ReplyMemory is what the probe replies of one connection have carried, kept
// alike at both of its ends: the last mask sent under each (folded metric,
// position) at one NumVecs, and the last arc. The owner sends a mask equal to
// the one its memory holds as formKept and an arc equal to the remembered
// one as arcKept, one byte each (ShortenProbeResp); the client's memory,
// which has seen the same replies, expands them (DecodeProbeRespTo).
//
// The update rule: after every reply — the owner once it has encoded it, the
// client once it has accepted it — record takes, mask by mask in the reply's
// order, each dense mask for its (metric, position), and the reply's arc or
// its lack. A reply at another NumVecs than the last one empties the memory
// of masks first. A new key takes a free slot or, once every slot is used,
// the slot of the key that arrived first, so what a memory holds is a
// function of the replies it has recorded and nothing else. The reset rule:
// a memory is born empty with its connection and dies with it; anything that
// could leave the two ends unequal — a reply the client refuses, a failed
// exchange — ends the connection. The bound: at most memoryMasks masks and
// memoryBytes of them, whatever NumVecs a peer claims, and a fixed index
// beside them. The zero value is an empty memory; it allocates on the first
// reply it records.
type ReplyMemory struct {
	hasArc  bool
	arcLo   uint64
	numVecs uint16
	keys    []uint32 // slot → memKey of the mask in it, slots in order of first use
	masks   []byte   // slot s's mask at s × ⌈numVecs/8⌉
	index   []uint16 // open addressing by memKey: slot+1, 0 for none
	next    int      // the slot a new key takes once every slot is used
}

// The memory's bounds.
const (
	memoryMasks = 1024
	memoryBytes = 64 << 10
	// indexBits sizes the index at twice memoryMasks entries, so that
	// linear probing stays short and always finds a free entry.
	indexBits = 11
)

// memKey names a mask by its folded metric and its position.
func memKey(metric uint64, bit int) uint32 { return uint32(FoldMetric(metric))<<8 | uint32(bit) }

// home is the index entry where key's search starts.
func home(key uint32) int { return int(key * 0x9E3779B1 >> (32 - indexBits)) }

// slots is how many masks the memory holds at its NumVecs.
func (r *ReplyMemory) slots() int {
	if n := MaskBytes(int(r.numVecs)); n > 0 {
		return min(memoryMasks, memoryBytes/n)
	}
	return memoryMasks
}

// find returns the index entry that holds key, or the free entry where it
// would go.
func (r *ReplyMemory) find(key uint32) int {
	for at := home(key); ; at = (at + 1) & (len(r.index) - 1) {
		if s := r.index[at]; s == 0 || r.keys[s-1] == key {
			return at
		}
	}
}

// unindex frees the index entry at and moves back into the hole every entry
// behind it whose search would otherwise no longer reach it.
func (r *ReplyMemory) unindex(at int) {
	wrap := len(r.index) - 1
	for j := (at + 1) & wrap; r.index[j] != 0; j = (j + 1) & wrap {
		if h := home(r.keys[r.index[j]-1]); (j-h)&wrap >= (j-at)&wrap {
			r.index[at], at = r.index[j], j
		}
	}
	r.index[at] = 0
}

// put records mask under key.
func (r *ReplyMemory) put(key uint32, mask []byte) {
	at := r.find(key)
	if s := int(r.index[at]); s != 0 {
		copy(r.masks[(s-1)*len(mask):], mask)
		return
	}
	s, slots := len(r.keys), r.slots()
	if s < slots {
		r.keys = append(grow(r.keys, 1, slots), key)
		r.masks = append(grow(r.masks, len(mask), slots*len(mask)), mask...)
	} else {
		s, r.next = r.next, (r.next+1)%slots
		r.unindex(r.find(r.keys[s]))
		r.keys[s] = key
		copy(r.masks[s*len(mask):], mask)
		at = r.find(key)
	}
	r.index[at] = uint16(s + 1)
}

// grow returns s with room for n more elements, never with a capacity past
// limit, which the caller keeps len(s)+n within.
func grow[T any](s []T, n, limit int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return append(make([]T, 0, min(max(2*cap(s), len(s)+n, 16), limit)), s...)
}

// keyed is one reply's masks as a memory names them: mask i answers
// metrics[i mod len(metrics)] at position bit + ⌊i / len(metrics)⌋. With mem
// nil the reply is stateless: no mask is known and nothing is recorded.
type keyed struct {
	mem     *ReplyMemory
	metrics []uint64
	bit     uint8
	numVecs uint16
}

// at returns the mask the memory holds for the reply's i-th, and whether it
// holds one.
func (k keyed) at(i int) ([]byte, bool) {
	r := k.mem
	if r == nil || r.index == nil || r.numVecs != k.numVecs {
		return nil, false
	}
	s := int(r.index[r.find(memKey(k.metrics[i%len(k.metrics)], int(k.bit)+i/len(k.metrics)))])
	if s == 0 {
		return nil, false
	}
	n := MaskBytes(int(k.numVecs))
	return r.masks[(s-1)*n : s*n], true
}

// arc reports the arc the memory holds.
func (k keyed) arc() (bool, uint64) {
	if k.mem == nil {
		return false, 0
	}
	return k.mem.hasArc, k.mem.arcLo
}

// record is the update rule: the reply's count dense masks, in order, and
// its arc.
func (k keyed) record(count int, masks []byte, hasArc bool, arcLo uint64) {
	r := k.mem
	if r == nil {
		return
	}
	r.hasArc, r.arcLo = hasArc, arcLo
	if r.index == nil || r.numVecs != k.numVecs {
		if r.index == nil {
			r.index = make([]uint16, 1<<indexBits)
		}
		clear(r.index)
		r.numVecs, r.keys, r.masks, r.next = k.numVecs, r.keys[:0], r.masks[:0], 0
	}
	n := MaskBytes(int(k.numVecs))
	for i := 0; i < count; i++ {
		r.put(memKey(k.metrics[i%len(k.metrics)], int(k.bit)+i/len(k.metrics)), masks[i*n:(i+1)*n])
	}
}
