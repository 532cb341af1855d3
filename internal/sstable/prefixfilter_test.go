package sstable

import (
	"fmt"
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/bloom"
	"pebblesdb/internal/vfs"
)

// prefixEntries returns sorted entries whose keys share 8-byte prefixes in
// groups ("pfx-0003key...").
func prefixEntries(groups, perGroup int) []kv {
	var entries []kv
	seq := base.SeqNum(1)
	for g := 0; g < groups; g++ {
		for i := 0; i < perGroup; i++ {
			k := fmt.Sprintf("pfx-%04dkey%04d", g, i)
			entries = append(entries, kv{
				ikey:  base.MakeInternalKey(nil, []byte(k), seq, base.KindSet),
				value: []byte("v"),
			})
			seq++
		}
	}
	return entries
}

func TestPrefixFilterRoundTrip(t *testing.T) {
	fs := vfs.NewMem()
	entries := prefixEntries(32, 8)
	buildTable(t, fs, "t.sst", entries, WriterOptions{BloomBitsPerKey: 10, PrefixBloomLength: 8})
	r := openTable(t, fs, "t.sst", nil)
	defer r.Close()

	if r.PrefixFilterLength() != 8 {
		t.Fatalf("prefix length = %d, want 8", r.PrefixFilterLength())
	}
	// Every present prefix must pass (no false negatives).
	for g := 0; g < 32; g++ {
		pfx := []byte(fmt.Sprintf("pfx-%04d", g))
		if !r.MayContainPrefix(pfx) {
			t.Fatalf("false negative for present prefix %q", pfx)
		}
	}
	// Absent prefixes should mostly fail; require at least some negatives
	// (a few false positives are legal).
	neg := 0
	for g := 1000; g < 1100; g++ {
		if !r.MayContainPrefix([]byte(fmt.Sprintf("pfx-%04d", g))) {
			neg++
		}
	}
	if neg < 90 {
		t.Fatalf("only %d/100 absent prefixes were excluded", neg)
	}
	// Length-mismatched probes must be conservative.
	if !r.MayContainPrefix([]byte("pfx")) || !r.MayContainPrefix([]byte("pfx-0001ke")) {
		t.Fatal("length-mismatched prefix probe must return true")
	}
	// The point-key filter still works alongside the prefix filter.
	if !r.MayContain([]byte("pfx-0000key0000")) {
		t.Fatal("key filter false negative")
	}

	// Every entry survives the round trip.
	it := r.NewIter()
	defer it.Close()
	i := 0
	for it.First(); it.Valid(); it.Next() {
		if string(it.Key()) != string(entries[i].ikey) {
			t.Fatalf("entry %d: key mismatch", i)
		}
		i++
	}
	if i != len(entries) {
		t.Fatalf("iterated %d entries, want %d", i, len(entries))
	}
}

// TestPrefixFilterDisabled: tables written without the knob have no prefix
// block and answer every prefix probe conservatively.
func TestPrefixFilterDisabled(t *testing.T) {
	fs := vfs.NewMem()
	buildTable(t, fs, "t.sst", prefixEntries(4, 4), WriterOptions{BloomBitsPerKey: 10})
	r := openTable(t, fs, "t.sst", nil)
	defer r.Close()
	if r.PrefixFilterLength() != 0 {
		t.Fatalf("prefix length = %d, want 0", r.PrefixFilterLength())
	}
	if !r.MayContainPrefix([]byte("pfx-0000")) || !r.MayContainPrefix([]byte("nope-999")) {
		t.Fatal("tables without a prefix filter must answer true")
	}
}

// TestPrefixFilterShortKeys: keys shorter than the prefix length are
// omitted from the filter without breaking the table.
func TestPrefixFilterShortKeys(t *testing.T) {
	fs := vfs.NewMem()
	entries := []kv{
		{ikey: base.MakeInternalKey(nil, []byte("ab"), 1, base.KindSet), value: []byte("v")},
		{ikey: base.MakeInternalKey(nil, []byte("abcdefgh-tail"), 2, base.KindSet), value: []byte("v")},
	}
	buildTable(t, fs, "t.sst", entries, WriterOptions{BloomBitsPerKey: 10, PrefixBloomLength: 8})
	r := openTable(t, fs, "t.sst", nil)
	defer r.Close()
	if !r.MayContainPrefix([]byte("abcdefgh")) {
		t.Fatal("false negative for present prefix")
	}
}

func TestDecodePrefixFilterRejects(t *testing.T) {
	for _, bad := range [][]byte{nil, {}, {8}, {0, 1, 2}} {
		if _, _, err := DecodePrefixFilter(bad); err == nil {
			t.Fatalf("DecodePrefixFilter(%v) accepted a malformed block", bad)
		}
	}
}

// FuzzPrefixFilter exercises the prefix-filter block decoder and probe with
// arbitrary block bytes: decode must never panic, must reject structurally
// impossible blocks, and an accepted filter must answer probes without
// panicking (any answer is legal for garbage bits — bloom filters degrade
// to "maybe").
func FuzzPrefixFilter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8})
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{1, 0xff})
	f.Add(EncodePrefixFilter(8, bloom.Build([][]byte{[]byte("prefix-a"), []byte("prefix-b")}, 10)))
	f.Add(EncodePrefixFilter(1, bloom.Build(nil, 10)))
	f.Add([]byte{16, 0, 0, 0, 0, 0, 0, 0, 0, 31}) // k=31: out-of-range probe count
	f.Fuzz(func(t *testing.T, payload []byte) {
		p, flt, err := DecodePrefixFilter(payload)
		if err != nil {
			return
		}
		if p < 1 || p > 255 {
			t.Fatalf("accepted prefix length %d", p)
		}
		probe := make([]byte, p)
		for i := range probe {
			probe[i] = byte(i)
		}
		flt.MayContain(probe)
		flt.MayContain(probe[:p/2])
	})
}

// TestPrefixFilterRoundTripFuzzSeed pins the encode->decode identity the
// fuzzer assumes.
func TestPrefixFilterRoundTripFuzzSeed(t *testing.T) {
	src := bloom.Build([][]byte{[]byte("aaaa"), []byte("bbbb")}, 10)
	p, flt, err := DecodePrefixFilter(EncodePrefixFilter(4, src))
	if err != nil {
		t.Fatal(err)
	}
	if p != 4 || string(flt) != string(src) {
		t.Fatal("round trip mismatch")
	}
	if !flt.MayContain([]byte("aaaa")) || !flt.MayContain([]byte("bbbb")) {
		t.Fatal("false negative after round trip")
	}
}
