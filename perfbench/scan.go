package main

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"leaplist"
)

// scan-churn: about half the operations are 1000-2000-key snapshot scans
// (one in ten placed across a shard boundary); the other half are 2-key
// transactions that set, overwrite or delete an adjacent pair of keys
// (indices 2j and 2j+1) together; a tenth are point reads.
const scanKeys = 1 << 20

type scanInst struct {
	s   *leaplist.Sharded[uint64]
	cls []*scanClient
}

type scanClient struct {
	s   *leaplist.Sharded[uint64]
	ks  keySpace
	m   *model
	rng *rand.Rand
	ver uint32

	kind    opKind
	idx, n  uint64
	payload uint32

	val          uint64
	found        bool
	gone0, gone1 bool // Present() of a pair delete
	err          error
	buf          []kv
}

func setupScan(seed uint64, opts []leaplist.Option) (instance, error) {
	inst, err := setupScanN(seed, opts, scanKeys)
	if err != nil {
		return nil, err
	}
	return inst, nil
}

// setupScanN is setupScan over n keys (tests use a small n).
func setupScanN(seed uint64, opts []leaplist.Option, n uint64) (*scanInst, error) {
	s := leaplist.NewSharded[uint64](numShards, opts...)
	ks := newKeySpace(n, 64, seed)
	if err := bulkLoad(s, ks, 0, ks.n); err != nil {
		return nil, err
	}
	inst := &scanInst{s: s}
	for c := 0; c < numClients; c++ {
		m, err := ownedModel(s, ks, c)
		if err != nil {
			return nil, err
		}
		inst.cls = append(inst.cls, &scanClient{s: s, ks: ks, m: m, rng: newRand(seed, uint64(c)), ver: 1})
	}
	return inst, nil
}

func (p *scanInst) clients() []client {
	out := make([]client, len(p.cls))
	for i, c := range p.cls {
		out[i] = c
	}
	return out
}

func (p *scanInst) store() *leaplist.Sharded[uint64] { return p.s }

func (p *scanInst) liveKeys() int {
	n := 0
	for _, c := range p.cls {
		n += c.m.live()
	}
	return n
}

// finalCheck scans the whole store once: every pair whole, every owned
// key as its client's model says.
func (p *scanInst) finalCheck() error {
	ks := p.cls[0].ks
	all := p.s.Collect(0, leaplist.MaxKey)
	if err := checkScan(all, 0, leaplist.MaxKey, ks); err != nil {
		return fmt.Errorf("final check: %w", err)
	}
	if err := checkPairs(all, ks, 0, ks.n-1); err != nil {
		return fmt.Errorf("final check: %w", err)
	}
	for _, c := range p.cls {
		if err := checkModel(all, ks, 0, ks.n-1, c.m); err != nil {
			return fmt.Errorf("final check: %w", err)
		}
	}
	return nil
}

func (c *scanClient) gen() {
	r := c.rng.IntN(100)
	switch {
	case r < 45:
		c.kind = opScan
		c.n = 1000 + c.rng.Uint64N(1001)
		if c.rng.IntN(10) == 0 {
			// Straddle one of the three inner shard boundaries.
			b := c.ks.n / numShards * (1 + c.rng.Uint64N(numShards-1))
			c.idx = b - 1 - c.rng.Uint64N(c.n-1)
		} else {
			c.idx = c.rng.Uint64N(c.ks.n - c.n + 1)
		}
	case r < 90:
		c.idx = c.m.lo + 2*c.rng.Uint64N(uint64(len(c.m.payload))/2)
		if c.m.at(c.idx) != 0 && c.rng.IntN(2) == 0 {
			c.kind = opDelete
		} else {
			c.kind, c.payload = opSet, nextVer(&c.ver)
		}
	default:
		c.kind, c.idx = opGet, c.rng.Uint64N(c.ks.n)
	}
}

func (c *scanClient) exec(tr *tracer) (opClass, int) {
	k := c.ks.key(c.idx)
	st := tr.start()
	switch c.kind {
	case opGet:
		c.val, c.found = c.s.Get(k)
		tr.stop(spGet, st)
		return classGet, 0
	case opSet, opDelete:
		k1 := c.ks.key(c.idx + 1)
		tx := c.s.Txn()
		var d0, d1 leaplist.ShardedDelete[uint64]
		if c.kind == opSet {
			tx.Set(k, encode(k, c.payload)).Set(k1, encode(k1, c.payload))
		} else {
			d0, d1 = tx.Delete(k), tx.Delete(k1)
		}
		tr.stop(spStage, st)
		cs := tr.start()
		c.err = tx.Commit()
		tr.stop(spCommitSingle, cs) // a pair never straddles a shard boundary
		c.gone0, c.gone1 = d0.Present(), d1.Present()
		tx.Release()
		tr.countCommit(2)
		tr.countWrite(1)
		return classWrite, 0
	}
	hi := c.ks.key(c.idx + c.n - 1)
	c.buf = c.s.CollectInto(k, hi, c.buf[:0])
	tr.stopScan(st, len(c.buf))
	tr.countScan(c.s.ShardOf(hi)-c.s.ShardOf(k)+1, len(c.buf))
	return classScan, len(c.buf)
}

func (c *scanClient) check() error {
	switch c.kind {
	case opGet:
		return checkGet(c.m, c.ks, c.idx, c.val, c.found)
	case opSet:
		if c.err != nil {
			return fmt.Errorf("pair set: %w", c.err)
		}
		c.m.set(c.idx, c.payload)
		c.m.set(c.idx+1, c.payload)
	case opDelete:
		if c.err != nil {
			return fmt.Errorf("pair delete: %w", c.err)
		}
		if !c.gone0 || !c.gone1 {
			return errors.New("pair delete reported a key absent that the model holds")
		}
		c.m.set(c.idx, 0)
		c.m.set(c.idx+1, 0)
	case opScan:
		lo, hi := c.idx, c.idx+c.n-1
		if err := checkScan(c.buf, c.ks.key(lo), c.ks.key(hi), c.ks); err != nil {
			return err
		}
		if err := checkPairs(c.buf, c.ks, lo, hi); err != nil {
			return err
		}
		return checkModel(c.buf, c.ks, lo, hi, c.m)
	}
	return nil
}
