package main

import "testing"

// hashAll folds every op stream a run can generate into one number.
func hashAll(seed uint64, cfg config) uint64 {
	g := newGen(seed, cfg, kindMixed)
	h := g.streamHash(g.fillStream())
	for _, kind := range []opKind{kindGetUniform, kindGetZipf, kindScan, kindMixed} {
		for _, s := range roundStreams(g, kind, 2000, streamRound) {
			h = h*31 + g.streamHash(s)
		}
	}
	return h
}

func TestSameSeedSameStream(t *testing.T) {
	cfg := smokeConfig()
	a, b, c := hashAll(7, cfg), hashAll(7, cfg), hashAll(8, cfg)
	if a != b {
		t.Fatalf("seed 7 gave op-stream hashes %x and %x", a, b)
	}
	if a == c {
		t.Fatalf("seeds 7 and 8 gave the same op-stream hash %x", a)
	}
}

func TestFillStreamCoversEveryKeyOnce(t *testing.T) {
	cfg := smokeConfig()
	g := newGen(3, cfg, kindFill)
	s := g.fillStream()
	if len(s) != cfg.keys+cfg.fillOverwrites {
		t.Fatalf("fill stream has %d ops, want %d", len(s), cfg.keys+cfg.fillOverwrites)
	}
	seen := make([]int, cfg.keys)
	for _, idx := range s[:cfg.keys] {
		seen[idx]++
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("key %d is loaded %d times", idx, n)
		}
	}
	for _, idx := range s[cfg.keys:] {
		if int(idx) >= cfg.keys {
			t.Fatalf("overwrite of key %d, beyond %d keys", idx, cfg.keys)
		}
	}
}

// read-zipf's reason to exist is that its hot set fits the cache: the
// stream it runs, theta 0.99 over the pinned key count, must put three
// quarters of the requests in the first 4% of the keys.
func TestZipfConcentration(t *testing.T) {
	cfg := pinned()
	g := newGen(1, cfg, kindGetZipf)
	hot, total := 0, 0
	for _, ops := range roundStreams(g, kindGetZipf, cfg.getZipfRound, streamRound) {
		for _, idx := range ops {
			if int(idx) >= cfg.keys {
				t.Fatalf("zipf drew key %d of %d", idx, cfg.keys)
			}
			if int(idx) < cfg.keys/25 {
				hot++
			}
		}
		total += len(ops)
	}
	if s := float64(hot) / float64(total); s < 0.75 {
		t.Errorf("%.4f of read-zipf's first round hits the first 4%% of %d keys, want >= 0.75", s, cfg.keys)
	}
}

func TestMixedIsHalfPuts(t *testing.T) {
	g := newGen(1, smokeConfig(), kindMixed)
	ops := make([]uint32, 100000)
	g.opStream(ops, kindMixed, streamRound)
	puts := 0
	for _, op := range ops {
		if op&putBit != 0 {
			puts++
		}
	}
	if puts < 49000 || puts > 51000 {
		t.Fatalf("%d of %d mixed ops are puts, want half", puts, len(ops))
	}
}

func TestKeyAndValueChecks(t *testing.T) {
	g := newGen(5, smokeConfig(), kindFill)
	var key [keyLen]byte
	var val [valueLen]byte
	for _, idx := range []uint32{0, 1, 4999, 123456789} {
		putKey(key[:], idx)
		if got, ok := keyIndex(key[:]); !ok || got != idx {
			t.Fatalf("key %q parsed to %d, %v", key, got, ok)
		}
		g.putValue(val[:], idx)
		if !g.checkValue(idx, val[:]) {
			t.Fatalf("value of %d does not pass its own check", idx)
		}
		if g.checkValue(idx+1, val[:]) {
			t.Fatalf("value of %d passes as the value of %d", idx, idx+1)
		}
		val[3] ^= 0x40
		if g.checkValue(idx, val[:]) {
			t.Fatalf("a corrupted header of %d passes the check", idx)
		}
		if g.checkValue(idx, val[:valueLen-1]) {
			t.Fatalf("a short value of %d passes the check", idx)
		}
	}
	if _, ok := keyIndex([]byte("000000000000x001")); ok {
		t.Fatal("a non-decimal key parsed")
	}
	if _, ok := keyIndex([]byte("0001")); ok {
		t.Fatal("a short key parsed")
	}
}
