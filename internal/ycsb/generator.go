// Package ycsb implements the Yahoo! Cloud Serving Benchmark core
// workloads (Cooper et al., SoCC 2010) used throughout the paper's §5.3
// evaluation: the zipfian, scrambled-zipfian, latest and uniform request
// distributions, and workloads Load A, A–D, F, Load E and E as described in
// Table 5.3.
package ycsb

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"pebblesdb/internal/murmur"
)

// Generator produces the next key index to operate on.
type Generator interface {
	// Next returns a key index in [0, n) for the generator's current n.
	Next(rng *rand.Rand) uint64
}

// Uniform selects uniformly from [0, N).
type Uniform struct{ N uint64 }

// Next implements Generator.
func (u Uniform) Next(rng *rand.Rand) uint64 { return uint64(rng.Int63n(int64(u.N))) }

// zipfConst is YCSB's default zipfian skew.
const zipfConst = 0.99

// Zipfian implements the Gray et al. incremental zipfian generator used by
// YCSB: item 0 is the most popular.
type Zipfian struct {
	items        uint64
	theta        float64
	zetaN, zeta2 float64
	alpha, eta   float64
}

// NewZipfian returns a zipfian generator over [0, items).
func NewZipfian(items uint64) *Zipfian {
	z := &Zipfian{items: items, theta: zipfConst}
	z.zeta2 = zetaStatic(2, z.theta)
	z.zetaN = zetaStatic(items, z.theta)
	z.alpha = 1.0 / (1.0 - z.theta)
	z.eta = (1 - math.Pow(2.0/float64(items), 1-z.theta)) / (1 - z.zeta2/z.zetaN)
	return z
}

func zetaStatic(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next implements Generator.
func (z *Zipfian) Next(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetaN
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	return uint64(float64(z.items) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// ScrambledZipfian spreads the zipfian head across the key space by
// hashing, matching YCSB's request distribution for workloads A–C and F.
type ScrambledZipfian struct {
	z     *Zipfian
	items uint64
}

// NewScrambledZipfian returns a scrambled zipfian over [0, items).
func NewScrambledZipfian(items uint64) *ScrambledZipfian {
	return &ScrambledZipfian{z: NewZipfian(items), items: items}
}

// Next implements Generator.
func (s *ScrambledZipfian) Next(rng *rand.Rand) uint64 {
	v := s.z.Next(rng)
	return murmur.Hash64([]byte{
		byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24),
		byte(v >> 32), byte(v >> 40), byte(v >> 48), byte(v >> 56),
	}, 0xdeadbeef) % s.items
}

// Latest skews toward recently inserted keys (workload D: "news feed").
// The insertion counter advances as the workload inserts.
type Latest struct {
	counter *atomic.Uint64

	mu   sync.Mutex
	z    *Zipfian
	zFor uint64
}

// NewLatest returns a latest-distribution generator following counter.
func NewLatest(counter *atomic.Uint64) *Latest {
	return &Latest{counter: counter}
}

// Next implements Generator.
func (l *Latest) Next(rng *rand.Rand) uint64 {
	n := l.counter.Load()
	if n == 0 {
		return 0
	}
	l.mu.Lock()
	if l.z == nil || l.zFor < n/2 || l.zFor > n {
		// Rebuild the zipfian lazily as the item count grows; exact YCSB
		// recomputes incrementally, the periodic rebuild preserves the
		// distribution shape at far lower cost.
		l.z = NewZipfian(n)
		l.zFor = n
	}
	z := l.z
	l.mu.Unlock()
	off := z.Next(rng)
	if off >= n {
		off = n - 1
	}
	return n - 1 - off
}

// KeyForIndex renders the canonical YCSB key for an index.
func KeyForIndex(dst []byte, idx uint64) []byte {
	dst = dst[:0]
	dst = append(dst, "user"...)
	// Fixed-width zero-padded decimal keeps keys sortable and constant
	// size, matching YCSB's hashed key formatting closely enough.
	var buf [19]byte
	for i := len(buf) - 1; i >= 0; i-- {
		buf[i] = byte('0' + idx%10)
		idx /= 10
	}
	return append(dst, buf[:]...)
}
