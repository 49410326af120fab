package main

import (
	"strings"
	"testing"
)

// scanOf returns the pairs a correct scan of indices [from, to] of ks
// returns when every index holds payload p.
func scanOf(ks keySpace, from, to uint64, p uint32) []kv {
	var out []kv
	for i := from; i <= to; i++ {
		k := ks.key(i)
		out = append(out, kv{Key: k, Value: encode(k, p)})
	}
	return out
}

func TestCheckScanRejectsOutOfOrderAndOutOfBounds(t *testing.T) {
	ks := newKeySpace(1<<10, 64, 7)
	good := scanOf(ks, 10, 20, 1)
	if err := checkScan(good, ks.key(10), ks.key(20), ks); err != nil {
		t.Fatalf("correct scan rejected: %v", err)
	}
	swapped := append([]kv{}, good...)
	swapped[3], swapped[4] = swapped[4], swapped[3]
	if err := checkScan(swapped, ks.key(10), ks.key(20), ks); err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Fatalf("out-of-order scan accepted: %v", err)
	}
	if err := checkScan(good, ks.key(11), ks.key(20), ks); err == nil {
		t.Fatal("scan with a key below its bound accepted")
	}
	stranger := append([]kv{}, good...)
	stranger[2].Key++
	stranger[2].Value = encode(stranger[2].Key, 1)
	if err := checkScan(stranger, ks.key(10), ks.key(20), ks); err == nil {
		t.Fatal("scan with a key that was never written accepted")
	}
}

func TestCheckersRejectWrongValue(t *testing.T) {
	ks := newKeySpace(1<<10, 64, 7)
	m := &model{lo: 0, payload: make([]uint32, 1<<9)}
	for i := range m.payload {
		m.payload[i] = 5
	}
	k := ks.key(3)
	if err := checkGet(m, ks, 3, encode(k, 5), true); err != nil {
		t.Fatalf("correct get rejected: %v", err)
	}
	if err := checkGet(m, ks, 3, encode(k, 6), true); err == nil {
		t.Fatal("get with a stale payload accepted")
	}
	if err := checkGet(m, ks, 3, encode(ks.key(4), 5), true); err == nil {
		t.Fatal("get returning another key's value accepted")
	}
	if err := checkGet(m, ks, 3, 0, false); err == nil {
		t.Fatal("get missing a key the model holds accepted")
	}
	// An index the client does not own is checked only for its encoding.
	if err := checkGet(m, ks, 1<<9+1, encode(ks.key(1<<9+1), 99), true); err != nil {
		t.Fatalf("unowned get rejected: %v", err)
	}

	scan := scanOf(ks, 0, 40, 5)
	if err := checkModel(scan, ks, 0, 40, m); err != nil {
		t.Fatalf("correct scan rejected by the model: %v", err)
	}
	scan[7].Value = encode(scan[7].Key, 4)
	if err := checkModel(scan, ks, 0, 40, m); err == nil {
		t.Fatal("scan with a wrong payload accepted")
	}
	missing := append(append([]kv{}, scan[:7]...), scan[8:]...)
	if err := checkModel(missing, ks, 0, 40, m); err == nil {
		t.Fatal("scan missing a key the model holds accepted")
	}
}

func TestCheckPairsRejectsTornPair(t *testing.T) {
	ks := newKeySpace(1<<10, 64, 7)
	scan := scanOf(ks, 10, 30, 2)
	if err := checkPairs(scan, ks, 10, 30); err != nil {
		t.Fatalf("whole pairs rejected: %v", err)
	}
	// Index 11's mate 10 lies inside [11, 30] only when the range starts
	// at 10: a scan starting at 11 may hold 11 alone.
	if err := checkPairs(scan[1:], ks, 11, 30); err != nil {
		t.Fatalf("edge key without its mate outside the range rejected: %v", err)
	}
	torn := append([]kv{}, scan...)
	torn[4].Value = encode(torn[4].Key, 3) // index 14, mate 15 keeps payload 2
	if err := checkPairs(torn, ks, 10, 30); err == nil {
		t.Fatal("pair with unequal payloads accepted")
	}
	half := append(append([]kv{}, scan[:5]...), scan[6:]...) // index 15 gone, 14 kept
	if err := checkPairs(half, ks, 10, 30); err == nil {
		t.Fatal("pair with one key missing accepted")
	}
}

func TestCheckAuditRejectsNonConservingCut(t *testing.T) {
	var accounts []kv
	var total uint64
	for i := uint64(0); i < 16; i++ {
		k := acctKey(int(i%4), int(i), 3)
		accounts = append(accounts, kv{Key: k, Value: encode(k, 1000)})
		total += 1000
	}
	if err := checkAudit(accounts, 16, total); err != nil {
		t.Fatalf("conserving audit rejected: %v", err)
	}
	// A transfer seen on the debit side only.
	accounts[5].Value = encode(accounts[5].Key, 900)
	if err := checkAudit(accounts, 16, total); err == nil {
		t.Fatal("non-conserving audit accepted")
	}
	accounts[6].Value = encode(accounts[6].Key, 1100)
	if err := checkAudit(accounts, 16, total); err != nil {
		t.Fatalf("conserving audit rejected: %v", err)
	}
	if err := checkAudit(accounts[1:], 16, total-1000); err == nil {
		t.Fatal("audit missing an account accepted")
	}
}
