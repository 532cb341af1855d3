package main

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// rng is splitmix64: small, allocation-free, and — unlike math/rand —
// certain to give the same stream on every Go release, which is what makes
// "the same seed gives the same inputs" hold across toolchains.
type rng struct{ s uint64 }

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// newRNG derives an independent stream from the run seed and a stream id.
func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: mix64(seed+0x9e3779b97f4a7c15) ^ mix64(stream*0xd1342543de82ef95+1)}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// intn returns a value in [0, n) by multiply-shift.
func (r *rng) intn(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// permutation returns the indices 0..n-1 in seeded random order.
func permutation(r *rng, n int) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(uint64(i + 1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// zipf draws ranks in [0, n) with P(rank) ~ 1/(rank+1)^theta, by the
// method of Gray et al. ("Quickly generating billion-record synthetic
// databases") that YCSB uses. Rank is the key index, unscrambled, so hot
// keys share blocks.
type zipf struct {
	n                 float64
	theta, alpha, eta float64
	zetan, half       float64
}

func newZipf(n int, theta float64) *zipf {
	zeta := func(m int) float64 {
		var s float64
		for i := 1; i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.half = 1 + math.Pow(0.5, theta)
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipf) draw(r *rng) uint32 {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	v := z.n * math.Pow(z.eta*u-z.eta+1, z.alpha)
	if v >= z.n {
		v = z.n - 1
	}
	return uint32(v)
}

// poolLen is the size of the value pool values are cut from.
const poolLen = 1 << 20

// valuePool returns poolLen bytes that compress to about half: 128-byte
// pieces whose second half repeats the first, as LevelDB's db_bench does.
func valuePool(r *rng) []byte {
	p := make([]byte, poolLen)
	for off := 0; off < poolLen; off += 128 {
		for i := 0; i < 64; i += 8 {
			binary.LittleEndian.PutUint64(p[off+i:], r.next())
		}
		copy(p[off+64:off+128], p[off:off+64])
	}
	return p
}

// gen holds the generated inputs of one run: everything the clients feed
// to the store is derived from seed here, before the timed phase.
type gen struct {
	seed uint64
	cfg  config
	pool []byte
	zipf *zipf // nil until a workload needs it
}

func newGen(seed uint64, cfg config, kind opKind) *gen {
	g := &gen{seed: seed, cfg: cfg, pool: valuePool(newRNG(seed, 1))}
	if kind == kindGetZipf || kind == kindMixed {
		g.zipf = newZipf(cfg.keys, zipfTheta)
	}
	return g
}

// putBit marks a mixed-workload op as a put; key indices stay below 2^31.
const putBit = 1 << 31

// Stream ids, so that every generator draws from its own sequence.
const (
	streamFillPerm = 10
	streamFillOver = 11
	streamRound    = 100 // + round*numClients + client
	streamWarmup   = 50  // + client
	streamUniform  = 60  // + step*numClients + client: read-zipf's uniform reference rounds
)

// fillStream is fill's op stream: every key once in permuted order, then
// cfg.fillOverwrites uniform overwrites. Client c takes positions c,
// c+numClients, ...
func (g *gen) fillStream() []uint32 {
	n := g.cfg.keys
	s := make([]uint32, 0, n+g.cfg.fillOverwrites)
	s = append(s, permutation(newRNG(g.seed, streamFillPerm), n)...)
	r := newRNG(g.seed, streamFillOver)
	for i := 0; i < g.cfg.fillOverwrites; i++ {
		s = append(s, uint32(r.intn(uint64(n))))
	}
	return s
}

// opStream fills dst with one client's ops of the given kind.
func (g *gen) opStream(dst []uint32, kind opKind, stream uint64) {
	r := newRNG(g.seed, stream)
	n := uint64(g.cfg.keys)
	for i := range dst {
		switch kind {
		case kindGetZipf:
			dst[i] = g.zipf.draw(r)
		case kindMixed:
			if r.next()&1 == 0 {
				dst[i] = g.zipf.draw(r)
			} else {
				dst[i] = uint32(r.intn(n)) | putBit
			}
		default:
			dst[i] = uint32(r.intn(n))
		}
	}
}

// putKey writes the 16-byte decimal key of idx into dst.
func putKey(dst []byte, idx uint32) {
	v := idx
	for i := keyLen - 1; i >= 0; i-- {
		dst[i] = byte('0' + v%10)
		v /= 10
	}
}

// keyIndex parses a key written by putKey; ok is false for anything else.
func keyIndex(key []byte) (idx uint32, ok bool) {
	if len(key) != keyLen {
		return 0, false
	}
	var v uint64
	for _, c := range key {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return uint32(v), v <= math.MaxUint32
}

// putValue writes the value of idx into dst[:valueLen]: the header, then
// 120 bytes cut from the pool at an offset the index chooses.
func (g *gen) putValue(dst []byte, idx uint32) {
	binary.BigEndian.PutUint64(dst, uint64(idx)^g.seed)
	off := int(mix64(uint64(idx)) % uint64(poolLen-valueLen))
	copy(dst[headerLen:valueLen], g.pool[off:])
}

// checkValue reports whether v is a value putValue could have written for
// idx: right length, right header.
func (g *gen) checkValue(idx uint32, v []byte) bool {
	return len(v) == valueLen && binary.BigEndian.Uint64(v) == uint64(idx)^g.seed
}

// streamHash folds an op stream and the key and value bytes it produces
// into one number, for the determinism tests.
func (g *gen) streamHash(ops []uint32) uint64 {
	var key [keyLen]byte
	var val [valueLen]byte
	h := uint64(14695981039346656037)
	add := func(b []byte) {
		for _, c := range b {
			h = (h ^ uint64(c)) * 1099511628211
		}
	}
	for _, op := range ops {
		idx := op &^ putBit
		putKey(key[:], idx)
		g.putValue(val[:], idx)
		add(key[:])
		add(val[:])
		add([]byte{byte(op >> 31)})
	}
	return h
}
