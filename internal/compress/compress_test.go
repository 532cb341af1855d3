package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pebblesdb/internal/block"
)

// refVectors are (decoded, encoded) pairs hand-derived from the Snappy
// format description. The encoded side of the first group is what any
// conforming encoder produces for inputs below minNonLiteralBlockSize (one
// literal element), so our encoder must match byte-for-byte; the rest are
// decoder-only vectors exercising each copy element type.
var refVectors = []struct {
	name    string
	decoded string
	encoded []byte
	exact   bool // encoder must produce exactly these bytes
}{
	{
		name:    "empty",
		decoded: "",
		encoded: []byte{0x00},
		exact:   true,
	},
	{
		name:    "short-literal",
		decoded: "abc",
		encoded: []byte{0x03, 0x08, 'a', 'b', 'c'},
		exact:   true,
	},
	{
		name:    "ten-a-literal",
		decoded: "aaaaaaaaaa",
		encoded: append([]byte{0x0a, 0x24}, []byte("aaaaaaaaaa")...),
		exact:   true,
	},
	{
		name:    "copy1",
		decoded: strings.Repeat("ab", 10),
		// len 20; literal "ab"; copy1 offset=2 len=18 is invalid (copy1 max
		// len 11), so use copy2: tag (18-1)<<2|10 = 0x46, offset 2.
		encoded: []byte{0x14, 0x04, 'a', 'b', 0x46, 0x02, 0x00},
	},
	{
		name:    "copy1-short",
		decoded: "abcdabcd",
		// len 8; literal "abcd"; copy1 len=4 offset=4:
		// tag = offsetHi<<5 | (4-4)<<2 | 01 = 0x01, offset low byte 4.
		encoded: []byte{0x08, 0x0c, 'a', 'b', 'c', 'd', 0x01, 0x04},
	},
	{
		name:    "copy4",
		decoded: "xyzw" + "xyzw",
		// Same output via the 4-byte-offset form: tag (4-1)<<2|11 = 0x0f.
		encoded: []byte{0x08, 0x0c, 'x', 'y', 'z', 'w', 0x0f, 0x04, 0x00, 0x00, 0x00},
	},
	{
		name:    "overlapping-copy",
		decoded: strings.Repeat("a", 12),
		// literal "a", then copy1 offset=1 len=11: tag (11-4)<<2|01 = 0x1d.
		// offset < length replicates the last byte (the overlapping case).
		encoded: []byte{0x0c, 0x00, 'a', 0x1d, 0x01},
	},
	{
		name:    "offset-1-long",
		decoded: strings.Repeat("z", 65),
		// literal "z", then copy2 offset=1 len=64: tag (64-1)<<2|10 = 0xfe.
		// The pattern doubles six times: 1, 2, 4, ... 64 bytes.
		encoded: []byte{0x41, 0x00, 'z', 0xfe, 0x01, 0x00},
	},
	{
		name:    "offset-below-length",
		decoded: "abc" + "abcabcabcab",
		// literal "abc", then copy1 offset=3 len=11: the pattern doubles to
		// 6 bytes and the last pass copies 2 of 12, ending inside a period.
		encoded: []byte{0x0e, 0x08, 'a', 'b', 'c', 0x1d, 0x03},
	},
	{
		name:    "offset-equals-length",
		decoded: "hellohello",
		// literal "hello", then copy1 offset=5 len=5: tag (5-4)<<2|01 =
		// 0x05. The source ends where the output begins: one bulk copy.
		encoded: []byte{0x0a, 0x10, 'h', 'e', 'l', 'l', 'o', 0x05, 0x05},
	},
}

func TestReferenceVectors(t *testing.T) {
	for _, v := range refVectors {
		got, err := Decode(nil, v.encoded)
		if err != nil {
			t.Fatalf("%s: decode: %v", v.name, err)
		}
		if string(got) != v.decoded {
			t.Fatalf("%s: decoded %q, want %q", v.name, got, v.decoded)
		}
		if v.exact {
			enc := Encode(nil, []byte(v.decoded))
			if !bytes.Equal(enc, v.encoded) {
				t.Fatalf("%s: encoded % x, want % x", v.name, enc, v.encoded)
			}
		}
	}
}

func roundTrip(t *testing.T, src []byte) {
	t.Helper()
	enc := Encode(nil, src)
	if max := MaxEncodedLen(len(src)); len(enc) > max {
		t.Fatalf("encoded %d bytes > MaxEncodedLen %d", len(enc), max)
	}
	got, err := Decode(nil, enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip mismatch: %d in, %d out", len(src), len(got))
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 100<<10)
	rng.Read(random)

	cases := [][]byte{
		nil,
		[]byte("a"),
		[]byte("hello, snappy"),
		bytes.Repeat([]byte("x"), 1<<20), // hyper-compressible, multi-fragment
		bytes.Repeat([]byte("0123456789abcdef"), 999), // periodic
		random,                            // incompressible
		random[:maxBlockSize],             // exactly one fragment
		random[:maxBlockSize+1],           // fragment boundary
		random[:minNonLiteralBlockSize-1], // literal-only path
		random[:minNonLiteralBlockSize],   // smallest searched fragment
	}
	// Semi-compressible: random quarter repeated four times, like the
	// benchmark value generator.
	semi := bytes.Repeat(random[:4<<10], 4)
	cases = append(cases, semi)

	for _, src := range cases {
		roundTrip(t, src)
	}
}

func TestRoundTripRandomSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := make([]byte, 256)
	rng.Read(base)
	for i := 0; i < 200; i++ {
		n := rng.Intn(8 << 10)
		src := make([]byte, 0, n)
		for len(src) < n {
			frag := base[:1+rng.Intn(64)]
			if len(src)+len(frag) > n {
				frag = frag[:n-len(src)]
			}
			src = append(src, frag...)
		}
		roundTrip(t, src)
	}
}

func TestCompressionRatioOnRepetitiveInput(t *testing.T) {
	src := bytes.Repeat([]byte("guard-key-0001:value-payload-"), 500)
	enc := Encode(nil, src)
	if len(enc) >= len(src)/4 {
		t.Fatalf("repetitive input compressed to %d of %d bytes", len(enc), len(src))
	}
}

func TestDecodeCorrupt(t *testing.T) {
	cases := []struct {
		name string
		src  []byte
	}{
		{"empty", nil},
		{"bad-varint", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}},
		{"truncated-literal", []byte{0x05, 0x10, 'a'}},
		{"truncated-copy2", []byte{0x08, 0x46}},
		{"copy-before-start", []byte{0x08, 0x04, 'a', 'b', 0x46, 0x09, 0x00}},
		{"zero-offset", []byte{0x08, 0x04, 'a', 'b', 0x46, 0x00, 0x00}},
		{"output-overrun", []byte{0x02, 0x04, 'a', 'b', 0x46, 0x02, 0x00}},
		{"short-output", []byte{0x7f, 0x08, 'a', 'b', 'c'}},
		{"trailing-garbage-length", []byte{0x03, 0x08, 'a', 'b', 'c', 0xfc}},
	}
	for _, c := range cases {
		if _, err := Decode(nil, c.src); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: got %v, want ErrCorrupt", c.name, err)
		}
	}
}

func TestDecodedLen(t *testing.T) {
	src := bytes.Repeat([]byte("pebbles"), 100)
	enc := Encode(nil, src)
	n, err := DecodedLen(enc)
	if err != nil || n != len(src) {
		t.Fatalf("DecodedLen = %d, %v; want %d", n, err, len(src))
	}
	// Varint 2^31: above maxDecodedLen but still a valid 32-bit length.
	if _, err := DecodedLen([]byte{0x80, 0x80, 0x80, 0x80, 0x08}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized header: %v, want ErrTooLarge", err)
	}
}

func TestDstReuse(t *testing.T) {
	src := bytes.Repeat([]byte("reuse"), 1000)
	buf := make([]byte, 1<<20)
	enc := Encode(buf, src)
	dst := make([]byte, 1<<20)
	got, err := Decode(dst, enc)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dst[0] {
		t.Fatal("Decode did not reuse a large-enough dst")
	}
	if !bytes.Equal(got, src) {
		t.Fatal("mismatch after reuse")
	}
}

func BenchmarkEncodeSemiCompressible(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	quarter := make([]byte, 1<<10)
	rng.Read(quarter)
	src := bytes.Repeat(quarter, 4) // 4 KiB block, ~50% compressible
	dst := make([]byte, MaxEncodedLen(len(src)))
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(dst, src)
	}
}

func BenchmarkDecodeSemiCompressible(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	quarter := make([]byte, 1<<10)
	rng.Read(quarter)
	src := bytes.Repeat(quarter, 4)
	enc := Encode(nil, src)
	dst := make([]byte, len(src))
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(dst, enc); err != nil {
			b.Fatal(err)
		}
	}
}

// storeShapedBlock builds a 4 KiB data block the way the benchmark of
// record (bench/gen.go) fills a store: 16-digit decimal keys under an
// 8-byte trailer, 128-byte values of an 8-byte header and 120 bytes cut at
// a random offset from a pool of 128-byte pieces whose second half repeats
// the first. Encoded, it is short literals between copies of a few dozen
// bytes, not the kilobyte runs of the SemiCompressible pair.
func storeShapedBlock(rng *rand.Rand) []byte {
	pool := make([]byte, 1<<16)
	for off := 0; off < len(pool); off += 128 {
		rng.Read(pool[off : off+64])
		copy(pool[off+64:off+128], pool[off:off+64])
	}
	b := block.NewBuilder(16)
	key := make([]byte, 24)
	val := make([]byte, 128)
	for idx := rng.Intn(1 << 20); b.EstimatedSize() < 4<<10; idx += 1 + rng.Intn(4) {
		copy(key, fmt.Sprintf("%016d", idx))
		binary.LittleEndian.PutUint64(key[16:], uint64(idx)<<8|1)
		binary.BigEndian.PutUint64(val, rng.Uint64())
		copy(val[8:], pool[rng.Intn(len(pool)-128):])
		b.Add(key, val)
	}
	return b.Finish()
}

// TestDecodeStoreShapedBlocks round-trips blocks whose elements are mostly
// at or under the 16 bytes Decode moves as two words, into a buffer of
// exactly the decoded length: a word written past the output would panic.
func TestDecodeStoreShapedBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		src := storeShapedBlock(rng)
		got, err := Decode(make([]byte, 0, len(src)), Encode(nil, src))
		if err != nil || !bytes.Equal(got, src) {
			t.Fatalf("block %d: round trip failed (%v)", i, err)
		}
	}
}

// BenchmarkDecodeStoreShaped is the decode a cold read of the benchmark's
// store pays per block.
func BenchmarkDecodeStoreShaped(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	var encs [][]byte
	size := 0
	for i := 0; i < 64; i++ {
		src := storeShapedBlock(rng)
		size += len(src)
		encs = append(encs, Encode(nil, src))
	}
	dst := make([]byte, 8<<10)
	b.SetBytes(int64(size / len(encs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(dst[:0], encs[i%len(encs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeStoreShaped is the encode a flush or a compaction of the
// benchmark's store pays per block, through the package-level Encode as
// the benchmark of record's driver calls it.
func BenchmarkEncodeStoreShaped(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	var srcs [][]byte
	size := 0
	for i := 0; i < 64; i++ {
		srcs = append(srcs, storeShapedBlock(rng))
		size += len(srcs[i])
	}
	dst := make([]byte, MaxEncodedLen(8<<10))
	b.SetBytes(int64(size / len(srcs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(dst, srcs[i%len(srcs)])
	}
}

// TestDecodeShortElements holds the two-word moves to the byte-by-byte
// meaning of the format: a literal, then a copy of every short length at
// every short offset (overlapping ones included), then a literal tail of 0
// to 20 bytes so that the copy lands both with and without 16 bytes of
// output left after it.
func TestDecodeShortElements(t *testing.T) {
	head := []byte("0123456789abcdefghijklmn")
	for offset := 1; offset <= len(head); offset++ {
		for length := 1; length <= 24; length++ {
			for tail := 0; tail <= 20; tail += 4 {
				want := append([]byte(nil), head...)
				for i := 0; i < length; i++ {
					want = append(want, want[len(want)-offset])
				}
				want = append(want, bytes.Repeat([]byte{'z'}, tail)...)

				enc := binary.AppendUvarint(nil, uint64(len(want)))
				enc = append(enc, byte(len(head)-1)<<2|tagLiteral)
				enc = append(enc, head...)
				enc = append(enc, byte(length-1)<<2|tagCopy2, byte(offset), 0)
				if tail > 0 {
					enc = append(enc, byte(tail-1)<<2|tagLiteral)
					enc = append(enc, want[len(want)-tail:]...)
				}
				got, err := Decode(nil, enc)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("offset %d length %d tail %d: got %q (%v), want %q", offset, length, tail, got, err, want)
				}
			}
		}
	}
}
