package main

import (
	"fmt"

	"leaplist"
)

type kv = leaplist.KV[uint64]

// The checkers below judge the program's outputs against properties and
// against per-client shadow models that the benchmark keeps itself; none
// of them compares with a recorded copy of earlier output.

// checkScan verifies a scan over [lo, hi]: keys strictly ascending and
// inside the bounds, each a key of ks, each value encoding its key.
func checkScan(kvs []kv, lo, hi uint64, ks keySpace) error {
	for i, p := range kvs {
		if p.Key < lo || p.Key > hi {
			return fmt.Errorf("scan [%#x, %#x] returned key %#x outside its bounds", lo, hi, p.Key)
		}
		if i > 0 && p.Key <= kvs[i-1].Key {
			return fmt.Errorf("scan [%#x, %#x] not ascending: %#x after %#x", lo, hi, p.Key, kvs[i-1].Key)
		}
		if _, ok := ks.index(p.Key); !ok {
			return fmt.Errorf("scan returned key %#x that was never written", p.Key)
		}
		if err := checkValue(p.Key, p.Value); err != nil {
			return err
		}
	}
	return nil
}

// model is a client's shadow copy of the indices it alone writes:
// payload[i-lo] is the payload stored under index i, 0 when absent.
type model struct {
	lo      uint64
	payload []uint32
}

func (m *model) owns(i uint64) bool { return i >= m.lo && i-m.lo < uint64(len(m.payload)) }

func (m *model) at(i uint64) uint32 { return m.payload[i-m.lo] }

func (m *model) set(i uint64, p uint32) { m.payload[i-m.lo] = p }

func (m *model) live() int {
	n := 0
	for _, p := range m.payload {
		if p != 0 {
			n++
		}
	}
	return n
}

// checkGet compares a point read of index i with the model when i is
// owned; any read value must encode its key.
func checkGet(m *model, ks keySpace, i uint64, v uint64, found bool) error {
	k := ks.key(i)
	if found {
		if err := checkValue(k, v); err != nil {
			return err
		}
	}
	if !m.owns(i) {
		return nil
	}
	want := m.at(i)
	switch {
	case want == 0 && found:
		return fmt.Errorf("get %#x: found payload %d, model has it absent", k, payloadOf(v))
	case want != 0 && !found:
		return fmt.Errorf("get %#x: absent, model has payload %d", k, want)
	case found && payloadOf(v) != want:
		return fmt.Errorf("get %#x: payload %d, model has %d", k, payloadOf(v), want)
	}
	return nil
}

// checkModel compares the owned part of a checked scan over indices
// [from, to] with the model: every owned index appears exactly when the
// model holds it, with the model's payload.
func checkModel(kvs []kv, ks keySpace, from, to uint64, m *model) error {
	j := 0
	for i := from; i <= to; i++ {
		var got uint32
		for j < len(kvs) {
			ki, _ := ks.index(kvs[j].Key)
			if ki > i {
				break
			}
			j++
			if ki == i {
				got = payloadOf(kvs[j-1].Value)
			}
		}
		if m.owns(i) && got != m.at(i) {
			return fmt.Errorf("scan at key %#x: payload %d, model has %d (0 = absent)", ks.key(i), got, m.at(i))
		}
	}
	return nil
}

// checkPairs verifies, for every pair (2j, 2j+1) with both indices in
// [from, to], that a snapshot holds both keys with equal payloads or
// neither key. kvs must already have passed checkScan.
func checkPairs(kvs []kv, ks keySpace, from, to uint64) error {
	for n, p := range kvs {
		i, _ := ks.index(p.Key)
		mate := i ^ 1
		if mate < from || mate > to {
			continue
		}
		var q *kv
		if i&1 == 0 && n+1 < len(kvs) {
			q = &kvs[n+1]
		} else if i&1 == 1 && n > 0 {
			q = &kvs[n-1]
		}
		if q == nil || q.Key != ks.key(mate) {
			return fmt.Errorf("torn pair: key %#x present without its mate %#x", p.Key, ks.key(mate))
		}
		if payloadOf(q.Value) != payloadOf(p.Value) {
			return fmt.Errorf("torn pair: keys %#x and %#x hold payloads %d and %d", p.Key, q.Key, payloadOf(p.Value), payloadOf(q.Value))
		}
	}
	return nil
}

// checkAudit verifies that one frozen cut of every account sums to the
// total the bank was opened with, and that each account appears once.
func checkAudit(kvs []kv, accounts int, total uint64) error {
	if len(kvs) != accounts {
		return fmt.Errorf("audit saw %d accounts, want %d", len(kvs), accounts)
	}
	var sum uint64
	for _, p := range kvs {
		if err := checkValue(p.Key, p.Value); err != nil {
			return err
		}
		sum += uint64(payloadOf(p.Value))
	}
	if sum != total {
		return fmt.Errorf("audit sums to %d, want %d", sum, total)
	}
	return nil
}
