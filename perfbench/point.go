package main

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"leaplist"
)

// point-zipf: Zipf-skewed point reads over 2M keys, hot ranks scattered
// over every shard by a seed-dependent permutation; the rest is
// overwrite and delete/re-insert churn on the client's own shards plus a
// few 10-100-key scans.
const pointKeys = 1 << 21

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opDelete
	opScan
)

// ownedModel returns client c's shadow model of a shard-affine key
// space: the contiguous half of the indices that lands on shards 2c and
// 2c+1, every index stored with payload 1 as bulk-loaded.
func ownedModel(s *leaplist.Sharded[uint64], ks keySpace, c int) (*model, error) {
	half := ks.n / numClients
	m := &model{lo: uint64(c) * half, payload: make([]uint32, half)}
	for i := range m.payload {
		m.payload[i] = 1
	}
	for _, i := range []uint64{m.lo, m.lo + half - 1} {
		if sh := s.ShardOf(ks.key(i)); sh/2 != c {
			return nil, fmt.Errorf("index %d lands on shard %d, not on client %d's shards", i, sh, c)
		}
	}
	return m, nil
}

// bulkLoad stores every index of ks with payload 1.
func bulkLoad(s *leaplist.Sharded[uint64], ks keySpace, from, to uint64) error {
	keys := make([]uint64, 0, to-from)
	vals := make([]uint64, 0, to-from)
	for i := from; i < to; i++ {
		k := ks.key(i)
		keys = append(keys, k)
		vals = append(vals, encode(k, 1))
	}
	return s.BulkLoad(keys, vals)
}

type pointInst struct {
	s   *leaplist.Sharded[uint64]
	cls []*pointClient
}

type pointClient struct {
	s    *leaplist.Sharded[uint64]
	ks   keySpace
	m    *model
	rng  *rand.Rand
	zipf *rand.Zipf
	ver  uint32

	kind    opKind
	idx, n  uint64
	payload uint32

	val   uint64
	found bool
	err   error
	buf   []kv
}

func setupPoint(seed uint64, opts []leaplist.Option) (instance, error) {
	inst, err := setupPointN(seed, opts, pointKeys)
	if err != nil {
		return nil, err
	}
	return inst, nil
}

// setupPointN is setupPoint over n keys (tests use a small n).
func setupPointN(seed uint64, opts []leaplist.Option, n uint64) (*pointInst, error) {
	s := leaplist.NewSharded[uint64](numShards, opts...)
	ks := newKeySpace(n, 64, seed)
	if err := bulkLoad(s, ks, 0, ks.n); err != nil {
		return nil, err
	}
	inst := &pointInst{s: s}
	for c := 0; c < numClients; c++ {
		m, err := ownedModel(s, ks, c)
		if err != nil {
			return nil, err
		}
		rng := newRand(seed, uint64(c))
		inst.cls = append(inst.cls, &pointClient{
			s: s, ks: ks, m: m, rng: rng, ver: 1,
			zipf: rand.NewZipf(rng, 1.01, 1, ks.n-1),
		})
	}
	return inst, nil
}

func (p *pointInst) clients() []client {
	out := make([]client, len(p.cls))
	for i, c := range p.cls {
		out[i] = c
	}
	return out
}

func (p *pointInst) store() *leaplist.Sharded[uint64] { return p.s }

func (p *pointInst) liveKeys() int {
	n := 0
	for _, c := range p.cls {
		n += c.m.live()
	}
	return n
}

// finalCheck reads every owned key of every client back.
func (p *pointInst) finalCheck() error {
	for _, c := range p.cls {
		for j := range c.m.payload {
			i := c.m.lo + uint64(j)
			v, ok := p.s.Get(c.ks.key(i))
			if err := checkGet(c.m, c.ks, i, v, ok); err != nil {
				return fmt.Errorf("final check: %w", err)
			}
		}
	}
	return nil
}

// nextVer returns a fresh nonzero payload.
func nextVer(v *uint32) uint32 {
	*v++
	if *v == 0 {
		*v = 1
	}
	return *v
}

func (c *pointClient) gen() {
	r := c.rng.IntN(100)
	switch {
	case r < 90:
		c.kind, c.idx = opGet, c.ks.perm(c.zipf.Uint64())
	case r < 96:
		c.idx = c.ks.perm(c.zipf.Uint64())
		if !c.m.owns(c.idx) {
			c.idx ^= c.ks.n / 2 // the same rank's key on this client's shards
		}
		if c.m.at(c.idx) != 0 && c.rng.IntN(2) == 0 {
			c.kind = opDelete
		} else {
			c.kind, c.payload = opSet, nextVer(&c.ver)
		}
	default:
		c.kind = opScan
		c.n = 10 + c.rng.Uint64N(91)
		c.idx = c.rng.Uint64N(c.ks.n - c.n + 1)
	}
}

func (c *pointClient) exec(tr *tracer) (opClass, int) {
	k := c.ks.key(c.idx)
	st := tr.start()
	switch c.kind {
	case opGet:
		c.val, c.found = c.s.Get(k)
		tr.stop(spGet, st)
		return classGet, 0
	case opSet:
		c.err = c.s.Set(k, encode(k, c.payload))
		tr.stop(spWrite, st)
		tr.countWrite(1)
		return classWrite, 0
	case opDelete:
		c.found, c.err = c.s.Delete(k)
		tr.stop(spWrite, st)
		tr.countWrite(1)
		return classWrite, 0
	}
	hi := c.ks.key(c.idx + c.n - 1)
	c.buf = c.s.CollectInto(k, hi, c.buf[:0])
	tr.stopScan(st, len(c.buf))
	tr.countScan(c.s.ShardOf(hi)-c.s.ShardOf(k)+1, len(c.buf))
	return classScan, len(c.buf)
}

func (c *pointClient) check() error {
	switch c.kind {
	case opGet:
		return checkGet(c.m, c.ks, c.idx, c.val, c.found)
	case opSet:
		if c.err != nil {
			return fmt.Errorf("set: %w", c.err)
		}
		c.m.set(c.idx, c.payload)
	case opDelete:
		if c.err != nil {
			return fmt.Errorf("delete: %w", c.err)
		}
		if !c.found {
			return errors.New("delete of a key the model holds reported it absent")
		}
		c.m.set(c.idx, 0)
	case opScan:
		if err := checkScan(c.buf, c.ks.key(c.idx), c.ks.key(c.idx+c.n-1), c.ks); err != nil {
			return err
		}
		return checkModel(c.buf, c.ks, c.idx, c.idx+c.n-1, c.m)
	}
	return nil
}
