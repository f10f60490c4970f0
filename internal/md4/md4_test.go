package md4

import (
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// rfc1320Vectors are the official test vectors from appendix A.5 of RFC 1320.
var rfc1320Vectors = []struct {
	in  string
	out string
}{
	{"", "31d6cfe0d16ae931b73c59d7e0c089c0"},
	{"a", "bde52cb31de33e46245e05fbdbd6fb24"},
	{"abc", "a448017aaf21d8525fc10ae87aa6729d"},
	{"message digest", "d9130a8164549fe818874806e1c7014b"},
	{"abcdefghijklmnopqrstuvwxyz", "d79e1c308aa5bbcdeea8ed63df412da9"},
	{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789", "043f8582f241db351ce627e153e7f0e4"},
	{"12345678901234567890123456789012345678901234567890123456789012345678901234567890", "e33b4ddc9c38f2199c3e7b164fcc0536"},
}

func TestRFC1320Vectors(t *testing.T) {
	for _, tc := range rfc1320Vectors {
		got := Sum([]byte(tc.in))
		if hex.EncodeToString(got[:]) != tc.out {
			t.Errorf("Sum(%q) = %x, want %s", tc.in, got, tc.out)
		}
	}
}

func TestHashInterface(t *testing.T) {
	for _, tc := range rfc1320Vectors {
		h := New()
		if _, err := h.Write([]byte(tc.in)); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.out {
			t.Errorf("New().Sum for %q = %s, want %s", tc.in, got, tc.out)
		}
	}
}

func TestWriteChunked(t *testing.T) {
	// Writing byte-by-byte, in odd-sized chunks, or all at once must agree.
	msg := []byte(strings.Repeat("chunky md4 input ", 37))
	want := Sum(msg)

	for _, chunk := range []int{1, 3, 7, 63, 64, 65, 100} {
		h := New()
		for i := 0; i < len(msg); i += chunk {
			end := i + chunk
			if end > len(msg) {
				end = len(msg)
			}
			h.Write(msg[i:end])
		}
		var got [Size]byte
		copy(got[:], h.Sum(nil))
		if got != want {
			t.Errorf("chunk size %d: got %x, want %x", chunk, got, want)
		}
	}
}

func TestSumDoesNotResetState(t *testing.T) {
	h := New()
	h.Write([]byte("ab"))
	mid := h.Sum(nil)
	h.Write([]byte("c"))
	final := hex.EncodeToString(h.Sum(nil))
	if want := "a448017aaf21d8525fc10ae87aa6729d"; final != want {
		t.Errorf("Sum after incremental write = %s, want %s", final, want)
	}
	if hex.EncodeToString(mid) == final {
		t.Error("intermediate and final digests unexpectedly equal")
	}
}

func TestReset(t *testing.T) {
	h := New()
	h.Write([]byte("garbage that should be discarded"))
	h.Reset()
	h.Write([]byte("abc"))
	if got := hex.EncodeToString(h.Sum(nil)); got != "a448017aaf21d8525fc10ae87aa6729d" {
		t.Errorf("after Reset: got %s", got)
	}
}

func TestSizeAndBlockSize(t *testing.T) {
	h := New()
	if h.Size() != 16 {
		t.Errorf("Size() = %d, want 16", h.Size())
	}
	if h.BlockSize() != 64 {
		t.Errorf("BlockSize() = %d, want 64", h.BlockSize())
	}
}

func TestPaddingBoundaries(t *testing.T) {
	// Exercise message lengths around the 56-byte and 64-byte padding
	// boundaries; compare the streaming implementation against Sum.
	for n := 50; n <= 130; n++ {
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = byte(i * 31)
		}
		want := Sum(msg)
		h := New()
		h.Write(msg)
		var got [Size]byte
		copy(got[:], h.Sum(nil))
		if got != want {
			t.Fatalf("length %d: streaming digest differs from Sum", n)
		}
	}
}

func TestSum64MatchesSum(t *testing.T) {
	f := func(data []byte) bool {
		full := Sum(data)
		var want uint64
		for i := 7; i >= 0; i-- {
			want = want<<8 | uint64(full[i])
		}
		return Sum64(data) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// digest64 is Sum64 the long way, through the streaming digest.
func digest64(data []byte) uint64 {
	h := New()
	h.Write(data)
	sum := h.Sum(nil)
	return uint64(sum[0]) | uint64(sum[1])<<8 | uint64(sum[2])<<16 | uint64(sum[3])<<24 |
		uint64(sum[4])<<32 | uint64(sum[5])<<40 | uint64(sum[6])<<48 | uint64(sum[7])<<56
}

// TestSum64OneBlock holds the one-block path to the streaming digest: the
// RFC 1320 vectors, every length from 0 to two blocks on both sides of the
// 55-byte cut, and 200 000 prefixed labels hashed by Sum64Concat — which
// must also be Sum64 of the concatenation at every split.
func TestSum64OneBlock(t *testing.T) {
	for _, tc := range rfc1320Vectors {
		want, _ := hex.DecodeString(tc.out)
		var w uint64
		for i := 7; i >= 0; i-- {
			w = w<<8 | uint64(want[i])
		}
		if got := Sum64([]byte(tc.in)); got != w {
			t.Errorf("Sum64(%q) = %x, want the RFC digest's first 8 bytes %x", tc.in, got, w)
		}
	}
	msg := make([]byte, 2*BlockSize)
	for i := range msg {
		msg[i] = byte(i*131 + 7)
	}
	for n := 0; n <= len(msg); n++ {
		if got, want := Sum64(msg[:n]), digest64(msg[:n]); got != want {
			t.Errorf("length %d: Sum64 = %x, digest %x", n, got, want)
		}
		for cut := 0; cut <= n; cut++ {
			if got, want := Sum64Concat(string(msg[:cut]), string(msg[cut:n])), digest64(msg[:n]); got != want {
				t.Fatalf("length %d cut at %d: Sum64Concat = %x, digest %x", n, cut, got, want)
			}
		}
	}
	for i := 0; i < 200000; i++ {
		label := fmt.Sprintf("item-%d-%x", i, i*2654435761)
		if got, want := Sum64Concat("item|", label), digest64([]byte("item|"+label)); got != want {
			t.Fatalf("label %q: Sum64Concat = %x, digest %x", label, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { Sum64Concat("item|", "relation-R:tuple-0123456789") }); n != 0 {
		t.Errorf("Sum64Concat of a short label allocated %.0f times", n)
	}
}

func TestDeterminism(t *testing.T) {
	f := func(data []byte) bool {
		return Sum(data) == Sum(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistinctInputsDistinctDigests(t *testing.T) {
	// Not a collision-resistance claim — just a sanity check that the
	// implementation does not collapse nearby inputs.
	seen := make(map[[Size]byte]string)
	for i := 0; i < 10000; i++ {
		msg := fmt.Sprintf("item-%d", i)
		d := Sum([]byte(msg))
		if prev, ok := seen[d]; ok {
			t.Fatalf("collision between %q and %q", prev, msg)
		}
		seen[d] = msg
	}
}

func BenchmarkSum64(b *testing.B) {
	data := []byte("relation-R:tuple-0123456789")
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Sum64(data)
	}
}

func BenchmarkSum64Concat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Sum64Concat("item|", "relation-R:tuple-0123456789")
	}
}

func BenchmarkSum1K(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		Sum(data)
	}
}
