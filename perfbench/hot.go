package main

import (
	"fmt"
	"math/rand/v2"

	"leaplist"
)

// hot-shared: both clients write and read one shared hot range of
// hotKeys keys — a few nodes at K=300 — on shard 0, the only workload
// with write-write contention. Every hot write is a 2-key transaction on
// a pair (indices 2j, 2j+1), so any snapshot must see each pair whole.
// Point reads and single-key Set/Delete also hit cold keys on shards 1-3,
// each cold key written by one client only (the lower or upper half of
// the cold indices) and checked against that client's model.
const (
	hotKeys  = 1024
	coldKeys = 1 << 16
)

type hotInst struct {
	s    *leaplist.Sharded[uint64]
	hot  keySpace
	cold keySpace
	cls  []*hotClient
}

type hotClient struct {
	h   *hotInst
	c   int
	m   *model // the cold keys this client writes
	rng *rand.Rand
	ver uint32

	kind         opKind
	cold         bool
	idx, n       uint64
	payload      uint32
	val          uint64
	found        bool
	gone0, gone1 bool
	err          error
	buf          []kv
}

func setupHot(seed uint64, opts []leaplist.Option) (instance, error) {
	s := leaplist.NewSharded[uint64](numShards, opts...)
	h := &hotInst{s: s, hot: newKeySpace(hotKeys, 62, seed), cold: newKeySpace(coldKeys, 64, seed)}
	if s.ShardOf(h.hot.key(hotKeys-1)) != 0 || s.ShardOf(h.cold.key(coldKeys/numShards)) != 1 {
		return nil, fmt.Errorf("hot keys must fill shard 0 and cold keys shards 1-3")
	}
	if err := bulkLoad(s, h.hot, 0, hotKeys); err != nil {
		return nil, err
	}
	if err := bulkLoad(s, h.cold, coldKeys/numShards, coldKeys); err != nil {
		return nil, err
	}
	per := (coldKeys - coldKeys/numShards) / numClients
	for c := 0; c < numClients; c++ {
		m := &model{lo: coldKeys/numShards + uint64(c*per), payload: make([]uint32, per)}
		for i := range m.payload {
			m.payload[i] = 1
		}
		h.cls = append(h.cls, &hotClient{h: h, c: c, m: m, rng: newRand(seed, uint64(c))})
	}
	return h, nil
}

func (h *hotInst) clients() []client {
	out := make([]client, len(h.cls))
	for i, c := range h.cls {
		out[i] = c
	}
	return out
}

func (h *hotInst) store() *leaplist.Sharded[uint64] { return h.s }

func (h *hotInst) liveKeys() int {
	n := h.s.Count(0, h.hot.key(hotKeys-1))
	for _, c := range h.cls {
		n += c.m.live()
	}
	return n
}

// finalCheck scans the hot range once and reads every cold key back.
func (h *hotInst) finalCheck() error {
	lo, hi := h.hot.key(0), h.hot.key(hotKeys-1)
	all := h.s.Collect(lo, hi)
	if err := checkScan(all, lo, hi, h.hot); err != nil {
		return fmt.Errorf("final check: %w", err)
	}
	if err := checkPairs(all, h.hot, 0, hotKeys-1); err != nil {
		return fmt.Errorf("final check: %w", err)
	}
	for _, c := range h.cls {
		for j := range c.m.payload {
			i := c.m.lo + uint64(j)
			v, ok := h.s.Get(h.cold.key(i))
			if err := checkGet(c.m, h.cold, i, v, ok); err != nil {
				return fmt.Errorf("final check: %w", err)
			}
		}
	}
	return nil
}

func (c *hotClient) gen() {
	r := c.rng.IntN(100)
	switch {
	case r < 40:
		c.kind, c.cold = opScan, false
		c.n = 64 + c.rng.Uint64N(449)
		c.idx = c.rng.Uint64N(hotKeys - c.n + 1)
	case r < 65:
		c.kind = opGet
		c.cold = c.rng.IntN(2) == 0
		if c.cold {
			c.idx = coldKeys/numShards + c.rng.Uint64N(coldKeys-coldKeys/numShards)
		} else {
			c.idx = c.rng.Uint64N(hotKeys)
		}
	case r < 70:
		// A single-key write on one of this client's cold keys.
		c.cold = true
		c.idx = c.m.lo + c.rng.Uint64N(uint64(len(c.m.payload)))
		if c.m.at(c.idx) != 0 && c.rng.IntN(2) == 0 {
			c.kind = opDelete
		} else {
			c.kind, c.payload = opSet, nextVer(&c.ver)
		}
	default:
		c.cold = false
		c.idx = 2 * c.rng.Uint64N(hotKeys/2)
		if c.rng.IntN(2) == 0 {
			c.kind = opDelete
		} else {
			// Payloads of the two clients never collide.
			c.kind, c.payload = opSet, uint32(c.c+1)<<28|nextVer(&c.ver)&(1<<28-1)
		}
	}
}

func (c *hotClient) exec(tr *tracer) (opClass, int) {
	s, ks := c.h.s, c.h.hot
	st := tr.start()
	switch c.kind {
	case opGet:
		k := ks.key(c.idx)
		if c.cold {
			k = c.h.cold.key(c.idx)
		}
		c.val, c.found = s.Get(k)
		tr.stop(spGet, st)
		return classGet, 0
	case opSet, opDelete:
		if c.cold {
			k := c.h.cold.key(c.idx)
			if c.kind == opSet {
				c.err = s.Set(k, encode(k, c.payload))
			} else {
				c.gone0, c.err = s.Delete(k)
			}
			tr.stop(spWrite, st)
			tr.countWrite(1)
			return classWrite, 0
		}
		k0, k1 := ks.key(c.idx), ks.key(c.idx+1)
		tx := s.Txn()
		var d0, d1 leaplist.ShardedDelete[uint64]
		if c.kind == opSet {
			tx.Set(k0, encode(k0, c.payload)).Set(k1, encode(k1, c.payload))
		} else {
			d0, d1 = tx.Delete(k0), tx.Delete(k1)
		}
		tr.stop(spStage, st)
		cs := tr.start()
		c.err = tx.Commit()
		tr.stop(spCommitSingle, cs)
		c.gone0, c.gone1 = d0.Present(), d1.Present()
		tx.Release()
		tr.countCommit(2)
		tr.countWrite(1)
		return classWrite, 0
	}
	lo, hi := ks.key(c.idx), ks.key(c.idx+c.n-1)
	c.buf = s.CollectInto(lo, hi, c.buf[:0])
	tr.stopScan(st, len(c.buf))
	tr.countScan(1, len(c.buf))
	return classScan, len(c.buf)
}

func (c *hotClient) check() error {
	ks := c.h.hot
	switch c.kind {
	case opGet:
		if c.cold {
			return checkGet(c.m, c.h.cold, c.idx, c.val, c.found)
		}
		if c.found {
			return checkValue(ks.key(c.idx), c.val)
		}
	case opSet:
		if c.err != nil {
			return fmt.Errorf("set: %w", c.err)
		}
		if c.cold {
			c.m.set(c.idx, c.payload)
		}
	case opDelete:
		if c.err != nil {
			return fmt.Errorf("delete: %w", c.err)
		}
		if c.cold {
			if !c.gone0 {
				return fmt.Errorf("delete of cold key %#x the model holds reported it absent", c.h.cold.key(c.idx))
			}
			c.m.set(c.idx, 0)
		} else if c.gone0 != c.gone1 {
			return fmt.Errorf("torn pair delete at %#x: present %v and %v", ks.key(c.idx), c.gone0, c.gone1)
		}
	case opScan:
		lo, hi := c.idx, c.idx+c.n-1
		if err := checkScan(c.buf, ks.key(lo), ks.key(hi), ks); err != nil {
			return err
		}
		return checkPairs(c.buf, ks, lo, hi)
	}
	return nil
}
