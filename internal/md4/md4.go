// Package md4 implements the MD4 message-digest algorithm (RFC 1320).
//
// The paper's evaluation derives node and item identifiers from MD4 ("MD4
// was selected due to its speed on 32-bit CPUs"). MD4 is cryptographically
// broken and must not be used for security purposes; here it serves only as
// the pseudo-uniform hash function that hash sketches and the DHT require.
package md4

import (
	"encoding/binary"
	"hash"
	"math/bits"
)

// Size is the size of an MD4 checksum in bytes.
const Size = 16

// BlockSize is the block size of MD4 in bytes.
const BlockSize = 64

const (
	init0 = 0x67452301
	init1 = 0xefcdab89
	init2 = 0x98badcfe
	init3 = 0x10325476
)

// digest represents the partial evaluation of a checksum.
type digest struct {
	s   [4]uint32
	x   [BlockSize]byte
	nx  int
	len uint64
}

// New returns a new hash.Hash computing the MD4 checksum.
func New() hash.Hash {
	d := new(digest)
	d.Reset()
	return d
}

func (d *digest) Reset() {
	d.s[0] = init0
	d.s[1] = init1
	d.s[2] = init2
	d.s[3] = init3
	d.nx = 0
	d.len = 0
}

func (d *digest) Size() int { return Size }

func (d *digest) BlockSize() int { return BlockSize }

func (d *digest) Write(p []byte) (n int, err error) {
	n = len(p)
	d.len += uint64(n)
	if d.nx > 0 {
		c := copy(d.x[d.nx:], p)
		d.nx += c
		if d.nx == BlockSize {
			block(&d.s, d.x[:])
			d.nx = 0
		}
		p = p[c:]
	}
	for len(p) >= BlockSize {
		block(&d.s, p[:BlockSize])
		p = p[BlockSize:]
	}
	if len(p) > 0 {
		d.nx = copy(d.x[:], p)
	}
	return n, nil
}

func (d *digest) Sum(in []byte) []byte {
	// Make a copy so the caller can keep writing and summing.
	d0 := *d
	h := d0.checkSum()
	return append(in, h[:]...)
}

func (d *digest) checkSum() [Size]byte {
	// Padding: a single 1 bit, zeros, then the length in bits as a
	// little-endian 64-bit integer, filling out the final block.
	lenBits := d.len << 3
	var tmp [1 + 63 + 8]byte
	tmp[0] = 0x80
	pad := (55 - d.len) % 64 // number of zero bytes after 0x80
	binary.LittleEndian.PutUint64(tmp[1+pad:], lenBits)
	d.Write(tmp[:1+pad+8])
	if d.nx != 0 {
		panic("md4: internal error, padding did not align")
	}

	var out [Size]byte
	for i, v := range d.s {
		binary.LittleEndian.PutUint32(out[i*4:], v)
	}
	return out
}

// Sum returns the MD4 checksum of the data.
func Sum(data []byte) [Size]byte {
	var d digest
	d.Reset()
	d.Write(data)
	return d.checkSum()
}

// oneBlock is the most input that pads into a single block: the 0x80 byte
// and the 8-byte bit length follow it within BlockSize.
const oneBlock = BlockSize - 9

// Sum64 returns the first 8 bytes of the MD4 checksum of data interpreted
// as a little-endian 64-bit integer. The DHT and DHS layers use it to
// produce L = 64-bit identifiers, matching the paper's evaluation setup.
// An input of at most 55 bytes — every label this repository hashes — is
// padded and hashed in one block on the stack.
func Sum64(data []byte) uint64 {
	if len(data) > oneBlock {
		h := Sum(data)
		return binary.LittleEndian.Uint64(h[:8])
	}
	var blk [BlockSize]byte
	copy(blk[:], data)
	return sum64Block(&blk, len(data))
}

// Sum64Concat is Sum64 of a followed by b, without building the
// concatenation: a prefixed label ("item|" + label) hashes allocation-free.
func Sum64Concat(a, b string) uint64 {
	if len(a)+len(b) > oneBlock {
		return Sum64([]byte(a + b))
	}
	var blk [BlockSize]byte
	copy(blk[copy(blk[:], a):], b)
	return sum64Block(&blk, len(a)+len(b))
}

// sum64Block finishes the n ≤ oneBlock input bytes at the front of an
// otherwise zero block — the padding byte, then the length in bits — and
// returns the first 8 bytes of its checksum.
func sum64Block(blk *[BlockSize]byte, n int) uint64 {
	blk[n] = 0x80
	binary.LittleEndian.PutUint64(blk[BlockSize-8:], uint64(n)<<3)
	s := [4]uint32{init0, init1, init2, init3}
	block(&s, blk[:])
	return uint64(s[0]) | uint64(s[1])<<32
}

// block folds one 64-byte block into the state s: RFC 1320's three rounds
// of sixteen steps, unrolled with their constant rotations. Each step waits
// on the word the step before computed, which is the round function's first
// operand. So a step adds its message word and constant to its own word
// first, and each round function takes the newest word last: G is written
// (x AND (y OR z)) OR (y AND z), H as x XOR (y XOR z). The chain from one
// step to the next is then one or two logic operations, one add and the
// rotation.
func block(s *[4]uint32, p []byte) {
	p = p[:BlockSize]
	x0 := binary.LittleEndian.Uint32(p[0:])
	x1 := binary.LittleEndian.Uint32(p[4:])
	x2 := binary.LittleEndian.Uint32(p[8:])
	x3 := binary.LittleEndian.Uint32(p[12:])
	x4 := binary.LittleEndian.Uint32(p[16:])
	x5 := binary.LittleEndian.Uint32(p[20:])
	x6 := binary.LittleEndian.Uint32(p[24:])
	x7 := binary.LittleEndian.Uint32(p[28:])
	x8 := binary.LittleEndian.Uint32(p[32:])
	x9 := binary.LittleEndian.Uint32(p[36:])
	x10 := binary.LittleEndian.Uint32(p[40:])
	x11 := binary.LittleEndian.Uint32(p[44:])
	x12 := binary.LittleEndian.Uint32(p[48:])
	x13 := binary.LittleEndian.Uint32(p[52:])
	x14 := binary.LittleEndian.Uint32(p[56:])
	x15 := binary.LittleEndian.Uint32(p[60:])

	a, b, c, d := s[0], s[1], s[2], s[3]

	// Round 1: F(x,y,z) = (x AND y) OR (NOT x AND z)
	a = bits.RotateLeft32(a+x0+(((c^d)&b)^d), 3)
	d = bits.RotateLeft32(d+x1+(((b^c)&a)^c), 7)
	c = bits.RotateLeft32(c+x2+(((a^b)&d)^b), 11)
	b = bits.RotateLeft32(b+x3+(((d^a)&c)^a), 19)
	a = bits.RotateLeft32(a+x4+(((c^d)&b)^d), 3)
	d = bits.RotateLeft32(d+x5+(((b^c)&a)^c), 7)
	c = bits.RotateLeft32(c+x6+(((a^b)&d)^b), 11)
	b = bits.RotateLeft32(b+x7+(((d^a)&c)^a), 19)
	a = bits.RotateLeft32(a+x8+(((c^d)&b)^d), 3)
	d = bits.RotateLeft32(d+x9+(((b^c)&a)^c), 7)
	c = bits.RotateLeft32(c+x10+(((a^b)&d)^b), 11)
	b = bits.RotateLeft32(b+x11+(((d^a)&c)^a), 19)
	a = bits.RotateLeft32(a+x12+(((c^d)&b)^d), 3)
	d = bits.RotateLeft32(d+x13+(((b^c)&a)^c), 7)
	c = bits.RotateLeft32(c+x14+(((a^b)&d)^b), 11)
	b = bits.RotateLeft32(b+x15+(((d^a)&c)^a), 19)

	// Round 2: G(x,y,z) = (x AND y) OR (x AND z) OR (y AND z)
	a = bits.RotateLeft32(a+x0+0x5a827999+((b&(c|d))|(c&d)), 3)
	d = bits.RotateLeft32(d+x4+0x5a827999+((a&(b|c))|(b&c)), 5)
	c = bits.RotateLeft32(c+x8+0x5a827999+((d&(a|b))|(a&b)), 9)
	b = bits.RotateLeft32(b+x12+0x5a827999+((c&(d|a))|(d&a)), 13)
	a = bits.RotateLeft32(a+x1+0x5a827999+((b&(c|d))|(c&d)), 3)
	d = bits.RotateLeft32(d+x5+0x5a827999+((a&(b|c))|(b&c)), 5)
	c = bits.RotateLeft32(c+x9+0x5a827999+((d&(a|b))|(a&b)), 9)
	b = bits.RotateLeft32(b+x13+0x5a827999+((c&(d|a))|(d&a)), 13)
	a = bits.RotateLeft32(a+x2+0x5a827999+((b&(c|d))|(c&d)), 3)
	d = bits.RotateLeft32(d+x6+0x5a827999+((a&(b|c))|(b&c)), 5)
	c = bits.RotateLeft32(c+x10+0x5a827999+((d&(a|b))|(a&b)), 9)
	b = bits.RotateLeft32(b+x14+0x5a827999+((c&(d|a))|(d&a)), 13)
	a = bits.RotateLeft32(a+x3+0x5a827999+((b&(c|d))|(c&d)), 3)
	d = bits.RotateLeft32(d+x7+0x5a827999+((a&(b|c))|(b&c)), 5)
	c = bits.RotateLeft32(c+x11+0x5a827999+((d&(a|b))|(a&b)), 9)
	b = bits.RotateLeft32(b+x15+0x5a827999+((c&(d|a))|(d&a)), 13)

	// Round 3: H(x,y,z) = x XOR y XOR z
	a = bits.RotateLeft32(a+x0+0x6ed9eba1+(b^(c^d)), 3)
	d = bits.RotateLeft32(d+x8+0x6ed9eba1+(a^(b^c)), 9)
	c = bits.RotateLeft32(c+x4+0x6ed9eba1+(d^(a^b)), 11)
	b = bits.RotateLeft32(b+x12+0x6ed9eba1+(c^(d^a)), 15)
	a = bits.RotateLeft32(a+x2+0x6ed9eba1+(b^(c^d)), 3)
	d = bits.RotateLeft32(d+x10+0x6ed9eba1+(a^(b^c)), 9)
	c = bits.RotateLeft32(c+x6+0x6ed9eba1+(d^(a^b)), 11)
	b = bits.RotateLeft32(b+x14+0x6ed9eba1+(c^(d^a)), 15)
	a = bits.RotateLeft32(a+x1+0x6ed9eba1+(b^(c^d)), 3)
	d = bits.RotateLeft32(d+x9+0x6ed9eba1+(a^(b^c)), 9)
	c = bits.RotateLeft32(c+x5+0x6ed9eba1+(d^(a^b)), 11)
	b = bits.RotateLeft32(b+x13+0x6ed9eba1+(c^(d^a)), 15)
	a = bits.RotateLeft32(a+x3+0x6ed9eba1+(b^(c^d)), 3)
	d = bits.RotateLeft32(d+x11+0x6ed9eba1+(a^(b^c)), 9)
	c = bits.RotateLeft32(c+x7+0x6ed9eba1+(d^(a^b)), 11)
	b = bits.RotateLeft32(b+x15+0x6ed9eba1+(c^(d^a)), 15)

	s[0] += a
	s[1] += b
	s[2] += c
	s[3] += d
}
