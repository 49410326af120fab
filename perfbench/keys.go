package main

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
)

// mix64 is the splitmix64 finalizer: a fixed bijective hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// newRand returns a generator determined by (seed, stream).
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(mix64(seed), mix64(stream^0x9e3779b97f4a7c15)))
}

// Values encode their key: the high 32 bits are a hash of the key, the
// low 32 bits a payload (a version, a balance or an amount). A value read
// under the wrong key, or a torn 64-bit word, fails valueOK.

func keyTag(k uint64) uint64 { return mix64(k^0x5bd1e995) >> 32 }

func encode(k uint64, payload uint32) uint64 { return keyTag(k)<<32 | uint64(payload) }

func payloadOf(v uint64) uint32 { return uint32(v) }

func valueOK(k, v uint64) bool { return v>>32 == keyTag(k) }

func checkValue(k, v uint64) error {
	if !valueOK(k, v) {
		return fmt.Errorf("value %#x does not encode key %#x", v, k)
	}
	return nil
}

// keySpace maps dense indices [0, n) onto keys spread evenly over
// [0, 2^spanBits), each shifted by a seed-dependent jitter below half its
// stride. NewSharded splits [0, MaxKey] into equal segments, so dense keys
// [0, n) would all land on shard 0; spread keys (spanBits 64) land on
// every shard in proportion. n is a power of two, so key>>shift recovers
// the index.
type keySpace struct {
	n     uint64
	shift uint // stride = 1 << shift
	seed  uint64
}

func newKeySpace(n uint64, spanBits uint, seed uint64) keySpace {
	lg := uint(bits.TrailingZeros64(n))
	if n < 2 || n&(n-1) != 0 || spanBits > 64 || spanBits < lg+2 {
		panic("keySpace: n must be a power of two with at least 4 key slots per key")
	}
	return keySpace{n: n, shift: spanBits - lg, seed: seed}
}

// key returns the key of index i; the jitter stays below half a stride,
// so the largest key is below MaxKey.
func (ks keySpace) key(i uint64) uint64 {
	jitter := mix64(i^ks.seed) >> (64 - ks.shift + 1)
	return i<<ks.shift | jitter
}

// index returns the index of k and whether k is a key of the space.
func (ks keySpace) index(k uint64) (uint64, bool) {
	i := k >> ks.shift
	return i, i < ks.n && ks.key(i) == k
}

// perm is a seed-dependent bijection of [0, n): a Zipf rank becomes an
// index, scattering the hot ranks over every shard.
func (ks keySpace) perm(r uint64) uint64 {
	mul := mix64(ks.seed^0x2545f4914f6cdd1d) | 1
	add := mix64(ks.seed ^ 0x6a09e667f3bcc909)
	return (r*mul + add) & (ks.n - 1)
}
