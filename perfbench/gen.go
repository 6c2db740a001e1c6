package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Everything a workload sends is a pure function of the run seed: the
// key a client draws, the size and bytes of every object version, the
// op order and range offsets. The cluster only ever sees the generated
// bytes, and the checker regenerates them instead of keeping objects in
// memory, so peak RSS measures the system rather than the generator.

// mix64 is the splitmix64 finaliser: a bijective 64-bit hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// derive hashes a seed and a tuple of coordinates into one 64-bit value,
// so distinct (key, version, purpose) tuples get independent streams.
func derive(seed uint64, parts ...uint64) uint64 {
	h := mix64(seed ^ 0x6a09e667f3bcc909)
	for _, p := range parts {
		h = mix64(h ^ mix64(p+0x9e3779b97f4a7c15))
	}
	return h
}

// Salts that keep the derived streams of one (key, version) apart.
const (
	saltBytes = iota + 1
	saltSize
	saltClient
	saltZipf
)

// rng is a splitmix64 stream: tiny, fast and reproducible.
type rng struct{ s uint64 }

func newRNG(seed uint64, parts ...uint64) *rng { return &rng{s: derive(seed, parts...)} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fillPayload writes the bytes of version v of key k into buf. A byte
// at offset i is the same whatever len(buf) is, so a prefix of an
// object regenerates with a shorter buffer.
func fillPayload(buf []byte, seed uint64, k int, v int64) {
	s := derive(seed, saltBytes, uint64(k), uint64(v)) | 1
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		binary.LittleEndian.PutUint64(buf[i:], s)
	}
	if i < len(buf) {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], s)
		copy(buf[i:], tail[:])
	}
}

// perm returns a permutation of [0, n) drawn from r.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// unit maps a hash to a uniform value in [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// logUniform maps u in [0, 1) onto [lo, hi] log-uniformly.
func logUniform(u float64, lo, hi int) int {
	n := int(math.Exp(math.Log(float64(lo)) + u*(math.Log(float64(hi))-math.Log(float64(lo)))))
	return min(max(n, lo), hi)
}

// zipf draws keys from [0, n) with P(rank r) ∝ 1/(r+1)^s. Ranks are
// mapped to keys through a seeded permutation so the hot keys are
// scattered over the key space rather than being keys 0, 1, 2.
type zipf struct {
	cdf  []float64
	perm []int
}

func newZipf(seed uint64, n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n), perm: newRNG(seed, saltZipf).perm(n)}
	total := 0.0
	for r := 0; r < n; r++ {
		total += 1 / math.Pow(float64(r+1), s)
		z.cdf[r] = total
	}
	for r := range z.cdf {
		z.cdf[r] /= total
	}
	return z
}

func (z *zipf) draw(r *rng) int {
	rank := sort.SearchFloat64s(z.cdf, r.float())
	if rank >= len(z.perm) {
		rank = len(z.perm) - 1
	}
	return z.perm[rank]
}

// objectName is the key's name in the gateway's object namespace.
func objectName(k int) string { return fmt.Sprintf("obj-%05d", k) }
