package main

import (
	"fmt"
	"math/rand/v2"

	"leaplist"
)

// ledger: the banking and audit traffic of examples/bank grown into a
// workload. Every shard holds ledgerAccounts accounts and an ascending
// journal. A transfer is one read-write Sharded.Txn that moves money
// between two accounts of the client's own shards — half of them on two
// shards (2PC), half on one (the single-shard fast path) — appends a
// journal entry and reads the debited account back. Every
// ledgerExpireEvery transfers the client expires old journal entries of
// one shard with a DeleteRange. Read-only audit transactions read every
// account of every shard at one cut; journal counts check the expiry.
const (
	ledgerAccounts     = 2048  // per shard
	ledgerJournal      = 32768 // journal entries per shard before the run
	ledgerKeep         = 32768 // entries a DeleteRange leaves behind
	ledgerExpireEvery  = 128
	ledgerInitialFunds = 1_000_000
)

func acctKey(sh, i int, seed uint64) uint64 {
	return uint64(sh)<<62 | uint64(i+1)<<40 | mix64(seed^uint64(sh<<20|i))>>25
}

func acctRange(sh int) (lo, hi uint64) {
	return uint64(sh) << 62, uint64(sh)<<62 | 1<<60
}

func journalKey(sh int, seq uint64) uint64 { return uint64(sh)<<62 | 1<<61 | seq }

func initialFunds(k uint64) uint32 { return ledgerInitialFunds + uint32(mix64(k)%1000) }

type ledgerInst struct {
	s     *leaplist.Sharded[uint64]
	seed  uint64
	total uint64
	cls   []*ledgerClient
}

// ledgerShard is a client's model of one of its shards.
type ledgerShard struct {
	sh       int
	bal      []uint32 // balance per account
	delta    []int64  // sum of recorded transfers per account
	next     uint64   // next journal sequence number
	expired  uint64   // journal entries below this were expired
	sinceExp int
}

type ledgerClient struct {
	l     *ledgerInst
	rng   *rand.Rand
	own   [2]*ledgerShard
	audit []kv

	kind     ledgerOp
	a, b     *ledgerShard
	ia, ib   int
	amount   uint32
	sh       *ledgerShard
	acctSh   int
	qlo, qhi uint64 // journal sequence range of a count
	val      uint64
	found    bool
	readBack uint64
	readOK   bool
	count    int
	err      error
}

type ledgerOp uint8

const (
	ledgerGet ledgerOp = iota
	ledgerTransfer
	ledgerExpire
	ledgerAudit
	ledgerCount
)

func setupLedger(seed uint64, opts []leaplist.Option) (instance, error) {
	s := leaplist.NewSharded[uint64](numShards, opts...)
	l := &ledgerInst{s: s, seed: seed}
	var keys, vals []uint64
	for sh := 0; sh < numShards; sh++ {
		for i := 0; i < ledgerAccounts; i++ {
			k := acctKey(sh, i, seed)
			f := initialFunds(k)
			keys, vals = append(keys, k), append(vals, encode(k, f))
			l.total += uint64(f)
		}
		for q := uint64(0); q < ledgerJournal; q++ {
			k := journalKey(sh, q)
			keys, vals = append(keys, k), append(vals, encode(k, uint32(q%1000)))
		}
	}
	if err := s.BulkLoad(keys, vals); err != nil {
		return nil, err
	}
	for c := 0; c < numClients; c++ {
		cl := &ledgerClient{l: l, rng: newRand(seed, uint64(c))}
		for j := range cl.own {
			sh := 2*c + j
			if s.ShardOf(acctKey(sh, 0, seed)) != sh || s.ShardOf(journalKey(sh, 1<<40)) != sh {
				return nil, fmt.Errorf("ledger keys of shard %d land on another shard", sh)
			}
			ls := &ledgerShard{sh: sh, bal: make([]uint32, ledgerAccounts), delta: make([]int64, ledgerAccounts), next: ledgerJournal}
			for i := range ls.bal {
				ls.bal[i] = initialFunds(acctKey(sh, i, seed))
			}
			cl.own[j] = ls
		}
		l.cls = append(l.cls, cl)
	}
	return l, nil
}

func (l *ledgerInst) clients() []client {
	out := make([]client, len(l.cls))
	for i, c := range l.cls {
		out[i] = c
	}
	return out
}

func (l *ledgerInst) store() *leaplist.Sharded[uint64] { return l.s }

func (l *ledgerInst) liveKeys() int {
	n := numShards * ledgerAccounts
	for _, c := range l.cls {
		for _, ls := range c.own {
			n += int(ls.next - ls.expired)
		}
	}
	return n
}

// finalCheck reads every account back: each must hold its initial funds
// plus the transfers its owner recorded; each journal must hold exactly
// the entries the model has not expired.
func (l *ledgerInst) finalCheck() error {
	for _, c := range l.cls {
		for _, ls := range c.own {
			for i := range ls.bal {
				k := acctKey(ls.sh, i, l.seed)
				v, ok := l.s.Get(k)
				want := int64(initialFunds(k)) + ls.delta[i]
				if !ok || !valueOK(k, v) || int64(payloadOf(v)) != want {
					return fmt.Errorf("final check: account %#x holds %d (present %v), want initial plus deltas %d", k, payloadOf(v), ok, want)
				}
			}
			got := l.s.Count(journalKey(ls.sh, 0), journalKey(ls.sh, 1<<60))
			if want := int(ls.next - ls.expired); got != want {
				return fmt.Errorf("final check: shard %d journal holds %d entries, want %d", ls.sh, got, want)
			}
		}
	}
	return nil
}

func (c *ledgerClient) gen() {
	for _, ls := range c.own {
		if ls.sinceExp >= ledgerExpireEvery {
			c.kind, c.sh = ledgerExpire, ls
			return
		}
	}
	r := c.rng.IntN(100)
	switch {
	case r < 40:
		c.kind = ledgerGet
		c.acctSh, c.ia = c.rng.IntN(numShards), c.rng.IntN(ledgerAccounts)
	case r < 90:
		c.kind = ledgerTransfer
		j := c.rng.IntN(2)
		c.a, c.b = c.own[j], c.own[j]
		if c.rng.IntN(2) == 0 {
			c.b = c.own[1-j]
		}
		c.ia = c.rng.IntN(ledgerAccounts)
		c.ib = c.rng.IntN(ledgerAccounts - 1)
		if c.a == c.b && c.ib >= c.ia {
			c.ib++ // two distinct accounts
		}
		c.amount = 1 + uint32(c.rng.IntN(1000))
		if c.a.bal[c.ia] < c.amount {
			c.amount = c.a.bal[c.ia]
		}
	case r < 98:
		c.kind = ledgerAudit
	default:
		c.kind = ledgerCount
		// A window straddling the expiry boundary.
		c.sh = c.own[c.rng.IntN(2)]
		c.qlo = c.sh.expired - min(c.sh.expired, 64)
		c.qhi = c.qlo + 1024
	}
}

func (c *ledgerClient) exec(tr *tracer) (opClass, int) {
	s := c.l.s
	st := tr.start()
	switch c.kind {
	case ledgerGet:
		c.val, c.found = s.Get(acctKey(c.acctSh, c.ia, c.l.seed))
		tr.stop(spGet, st)
		return classGet, 0
	case ledgerTransfer:
		ka, kb := acctKey(c.a.sh, c.ia, c.l.seed), acctKey(c.b.sh, c.ib, c.l.seed)
		kj := journalKey(c.a.sh, c.a.next)
		tx := s.Txn()
		tx.Set(ka, encode(ka, c.a.bal[c.ia]-c.amount)).
			Set(kb, encode(kb, c.b.bal[c.ib]+c.amount)).
			Set(kj, encode(kj, c.amount))
		g := tx.Get(ka)
		tr.stop(spStage, st)
		cs := tr.start()
		c.err = tx.Commit()
		shards := 1
		if c.a != c.b {
			shards = 2
			tr.stop(spCommitCross, cs)
		} else {
			tr.stop(spCommitSingle, cs)
		}
		c.readBack, c.readOK = g.Value()
		tx.Release()
		tr.countCommit(4)
		tr.countWrite(shards)
		return classWrite, 0
	case ledgerExpire:
		tx := s.Txn()
		d := tx.DeleteRange(journalKey(c.sh.sh, c.sh.expired), journalKey(c.sh.sh, c.sh.next-ledgerKeep-1))
		tr.stop(spStage, st)
		cs := tr.start()
		c.err = tx.Commit()
		tr.stop(spCommitSingle, cs)
		c.count = d.Count()
		tx.Release()
		tr.countCommit(1)
		tr.countWrite(1)
		return classWrite, 0
	case ledgerAudit:
		tx := s.Txn()
		var rs [numShards]leaplist.ShardedRange[uint64]
		for sh := range rs {
			rs[sh] = tx.GetRange(acctRange(sh))
		}
		tr.stop(spStage, st)
		cs := tr.start()
		c.err = tx.Commit()
		tr.stop(spCommitRO, cs)
		c.audit = c.audit[:0]
		for _, r := range rs {
			c.audit = append(c.audit, r.Pairs()...)
		}
		tx.Release()
		tr.countScan(numShards, len(c.audit))
		return classScan, len(c.audit)
	}
	c.count = s.Count(journalKey(c.sh.sh, c.qlo), journalKey(c.sh.sh, c.qhi))
	tr.stopScan(st, c.count)
	tr.countScan(1, c.count)
	return classScan, c.count
}

func (c *ledgerClient) check() error {
	switch c.kind {
	case ledgerGet:
		k := acctKey(c.acctSh, c.ia, c.l.seed)
		if !c.found || !valueOK(k, c.val) {
			return fmt.Errorf("get account %#x: present %v, value %#x", k, c.found, c.val)
		}
		if ls := c.owned(c.acctSh); ls != nil && payloadOf(c.val) != ls.bal[c.ia] {
			return fmt.Errorf("get account %#x: balance %d, model has %d", k, payloadOf(c.val), ls.bal[c.ia])
		}
	case ledgerTransfer:
		if c.err != nil {
			return fmt.Errorf("transfer: %w", c.err)
		}
		ka := acctKey(c.a.sh, c.ia, c.l.seed)
		if want := encode(ka, c.a.bal[c.ia]-c.amount); !c.readOK || c.readBack != want {
			return fmt.Errorf("transfer read-back of %#x: %#x (found %v), want %#x", ka, c.readBack, c.readOK, want)
		}
		c.a.bal[c.ia] -= c.amount
		c.b.bal[c.ib] += c.amount
		c.a.delta[c.ia] -= int64(c.amount)
		c.b.delta[c.ib] += int64(c.amount)
		c.a.next++
		c.a.sinceExp++
	case ledgerExpire:
		if c.err != nil {
			return fmt.Errorf("journal expiry: %w", c.err)
		}
		want := c.sh.next - ledgerKeep - c.sh.expired
		if uint64(c.count) != want {
			return fmt.Errorf("journal expiry on shard %d deleted %d entries, model has %d", c.sh.sh, c.count, want)
		}
		c.sh.expired += want
		c.sh.sinceExp = 0
	case ledgerAudit:
		if c.err != nil {
			return fmt.Errorf("audit: %w", c.err)
		}
		if err := checkAudit(c.audit, numShards*ledgerAccounts, c.l.total); err != nil {
			return err
		}
		for _, ls := range c.own {
			for i, p := range c.audit[ls.sh*ledgerAccounts : (ls.sh+1)*ledgerAccounts] {
				if p.Key != acctKey(ls.sh, i, c.l.seed) || payloadOf(p.Value) != ls.bal[i] {
					return fmt.Errorf("audit: account %#x holds %d, model has %d", p.Key, payloadOf(p.Value), ls.bal[i])
				}
			}
		}
	case ledgerCount:
		lo, hi := max(c.qlo, c.sh.expired), min(c.qhi, c.sh.next-1)
		want := 0
		if hi >= lo {
			want = int(hi - lo + 1)
		}
		if c.count != want {
			return fmt.Errorf("journal count on shard %d: %d, model has %d", c.sh.sh, c.count, want)
		}
	}
	return nil
}

// owned returns the client's model of shard sh, nil if another client owns it.
func (c *ledgerClient) owned(sh int) *ledgerShard {
	for _, ls := range c.own {
		if ls.sh == sh {
			return ls
		}
	}
	return nil
}
