package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// spanName names a layer boundary the driver crosses. Every span wraps
// one call (or one group of staging calls) the driver makes into a public
// function of that layer.
type spanName uint8

const (
	spOp           spanName = iota // root: one client operation
	spGet                          // core.get: Sharded.Get
	spWrite                        // core.write: Sharded.Set / Sharded.Delete outside a transaction
	spScan                         // core.scan: Sharded.CollectInto / Sharded.Count
	spStage                        // tx.stage: the staging calls of one Sharded.Txn
	spCommitSingle                 // sharded.commit.single: read-write Commit on one shard
	spCommitCross                  // sharded.commit.cross: read-write Commit over several shards (2PC)
	spCommitRO                     // sharded.commit.readonly: read-only Commit (one frozen cut)
	numSpans
)

var spanNames = [numSpans]string{
	"op", "core.get", "core.write", "core.scan", "tx.stage",
	"sharded.commit.single", "sharded.commit.cross", "sharded.commit.readonly",
}

type span struct {
	op         uint64 // operation id: client<<48 | sequence
	start, end int64  // ns since the run's base time
	parent     int32  // index of the parent span in the same buffer, -1 for a root
	name       spanName
}

// maxSpans caps the spans one client keeps for the dump file (32 B
// each); the per-layer aggregates cover every span, kept or not.
const maxSpans = 1 << 18

// tracer records spans for one client goroutine. A nil *tracer is the
// untraced run: every method returns at once.
type tracer struct {
	base  time.Time
	op    uint64
	root  int32
	spans []span
	layer [numSpans]*hist

	writes, writeShards uint64 // write operations and shards they touched
	scans, scanShards   uint64 // scan operations and shards they touched
	scanKeys            uint64 // pairs returned by every scan
	coreScanKeys        uint64 // pairs returned inside core.scan spans
	commits, staged     uint64 // read-write commits and ops staged for them
}

func newTracer(base time.Time) *tracer {
	t := &tracer{base: base, root: -1}
	for i := range t.layer {
		t.layer[i] = newHist()
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) beginOp(id uint64) {
	if t == nil {
		return
	}
	t.op, t.root = id, -1
	if len(t.spans) < maxSpans {
		t.root = int32(len(t.spans))
		t.spans = append(t.spans, span{op: id, start: t.now(), parent: -1, name: spOp})
	}
}

func (t *tracer) endOp(d int64) {
	if t == nil {
		return
	}
	t.layer[spOp].add(uint64(d))
	if t.root >= 0 {
		t.spans[t.root].end = t.now()
	}
}

// start opens a child span of the current operation; stop closes it.
func (t *tracer) start() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

func (t *tracer) stop(name spanName, start int64) {
	if t == nil {
		return
	}
	end := t.now()
	t.layer[name].add(uint64(end - start))
	if t.root >= 0 && len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{op: t.op, start: start, end: end, parent: t.root, name: name})
	}
}

// stopScan closes a core.scan span that returned keys pairs.
func (t *tracer) stopScan(start int64, keys int) {
	if t != nil {
		t.stop(spScan, start)
		t.coreScanKeys += uint64(keys)
	}
}

func (t *tracer) countWrite(shards int) {
	if t != nil {
		t.writes++
		t.writeShards += uint64(shards)
	}
}

func (t *tracer) countScan(shards, keys int) {
	if t != nil {
		t.scans++
		t.scanShards += uint64(shards)
		t.scanKeys += uint64(keys)
	}
}

func (t *tracer) countCommit(staged int) {
	if t != nil {
		t.commits++
		t.staged += uint64(staged)
	}
}

// merge folds o's aggregates into t (spans are dumped per client).
func (t *tracer) merge(o *tracer) {
	for i := range t.layer {
		t.layer[i].merge(o.layer[i])
	}
	t.writes += o.writes
	t.writeShards += o.writeShards
	t.scans += o.scans
	t.scanShards += o.scanShards
	t.scanKeys += o.scanKeys
	t.coreScanKeys += o.coreScanKeys
	t.commits += o.commits
	t.staged += o.staged
}

// dumpSpans writes every kept span of every client as tab-separated
// rows: op id, span index, parent index, name, start ns, end ns.
func dumpSpans(path string, ts []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "client\top\tspan\tparent\tname\tstart_ns\tend_ns")
	for c, t := range ts {
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", c, s.op, i, s.parent, spanNames[s.name], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
