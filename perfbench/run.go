package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"leaplist"
	"leaplist/internal/epoch"
	"leaplist/internal/stm"
)

type config struct {
	seed    uint64
	seconds float64
	traced  bool
	rounds  int           // set-up-and-measure rounds per run
	bound   time.Duration // watchdog bound on one operation
	outDir  string        // stacks of stuck operations and span dumps go here
}

type metric struct {
	name  string
	value float64
	unit  string
}

type runResult struct {
	correct   bool
	attempted uint64
	failed    uint64
	metrics   []metric
	err       error // the first checker failure, if any
}

// gcSample reads the runtime counters the gc.* metrics are deltas of.
type gcSample struct {
	allocs, allocBytes, cycles, pauseNs uint64
}

var gcNames = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readGC() gcSample {
	s := make([]metrics.Sample, len(gcNames))
	for i, n := range gcNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSample{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64(), ms.PauseTotalNs}
}

// liveHeap collects garbage until the live heap stops shrinking and
// returns it in bytes. One collection is not enough: the library's pooled
// read and commit scratch carry finalizers, so a dropped store stays
// reachable through the pools and the finalizer queue for several cycles.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	prev := ^uint64(0)
	for i := 0; i < 10; i++ {
		runtime.GC()
		time.Sleep(2 * time.Millisecond) // let the finalizer goroutine run
		metrics.Read(s)
		live := s[0].Value.Uint64()
		if i >= 3 && live >= prev {
			return live
		}
		prev = live
	}
	return prev
}

// roundSeed is the seed of round r's inputs: every round of a run draws
// its own inputs, so one run samples several placements of hot keys and
// node boundaries rather than one.
func roundSeed(seed uint64, r int) uint64 { return mix64(seed) ^ uint64(r) }

// setupOnce builds one instance and runs its checked warm-up.
func setupOnce(w *workload, cfg config, seed uint64, opts []leaplist.Option) (instance, error) {
	inst, err := w.setup(seed, opts)
	if err != nil {
		return nil, err
	}
	cls := inst.clients()
	recs := make([]*recorder, len(cls))
	for c := range recs {
		recs[c] = newRecorder(1, time.Hour)
	}
	wd := newWatchdog(cfg, w.name+"-warmup")
	stuck := waitClients(runClients(cls, wd, recs, nil, newStopper(), w.warmOps, 0), wd, time.Minute)
	wd.halt()
	if stuck > 0 {
		return nil, fmt.Errorf("warm-up: %d client(s) stuck in an operation", stuck)
	}
	for _, r := range recs {
		if r.err != nil {
			return nil, fmt.Errorf("warm-up: %w", r.err)
		}
	}
	return inst, nil
}

func newWatchdog(cfg config, label string) *watchdog {
	wd := &watchdog{
		base:     time.Now(),
		bound:    cfg.bound,
		stackDir: cfg.outDir,
		label:    fmt.Sprintf("%s-seed%d", label, cfg.seed),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go wd.run()
	return wd
}

// halt stops the watchdog goroutine and waits for it.
func (w *watchdog) halt() {
	close(w.stop)
	<-w.done
}

// totals accumulates the rounds of one run.
type totals struct {
	wins      []window // one per measured slice of every round
	all       window   // every operation of every round
	attempted uint64
	failed    uint64
	genNs     uint64
	checkNs   uint64
	err       error
	stuck     int
	setupS    []float64
	perKey    []float64

	trs                   []*tracer // per client, across rounds (traced runs)
	stm                   stm.StatsSnapshot
	retired, reclaimed    uint64
	backlog               uint64
	flushMs               float64
	allocs, bytes, cycles uint64
	pauseNs               uint64
}

// runWorkload runs cfg.rounds rounds of the workload; each sets a fresh
// store up, measures it for its share of cfg.seconds with both clients,
// and checks it. Every end-to-end metric is the median over the rounds'
// one-second slices (setup_s and heap_bytes_per_key over the rounds), so
// neither a burst of noise on the host nor one unlucky set-up moves it.
func runWorkload(w *workload, cfg config) (runResult, error) {
	// Every window exists before any round reads its baseline heap, so
	// only the store and the models count towards heap_bytes_per_key.
	tot := &totals{all: newWindow(), wins: make([]window, 0, cfg.rounds*cfg.slices())}
	for range cap(tot.wins) {
		tot.wins = append(tot.wins, newWindow())
	}
	if cfg.traced {
		for c := 0; c < numClients; c++ {
			tot.trs = append(tot.trs, newTracer(time.Now()))
		}
	}
	if err := prime(w, cfg); err != nil {
		return runResult{}, err
	}
	rounds := 0
	for ; rounds < cfg.rounds && tot.err == nil && tot.stuck == 0; rounds++ {
		if err := runRound(w, cfg, rounds, tot); err != nil {
			return runResult{}, err
		}
	}
	tot.wins = tot.wins[:rounds*cfg.slices()]
	if tot.stuck > 0 {
		// A stuck operation may hold the store forever: reading it again
		// could hang too, so that round's final check and key count are
		// skipped.
		fmt.Fprintf(os.Stderr, "perfbench: %d client(s) still stuck at run end; final check skipped\n", tot.stuck)
	}
	res := runResult{correct: tot.err == nil, err: tot.err, attempted: tot.attempted, failed: tot.failed}

	us := func(ns uint64) float64 { return float64(ns) / 1e3 }
	perWindow := func(f func(w *window) float64) float64 {
		xs := make([]float64, len(tot.wins))
		for i := range tot.wins {
			xs[i] = f(&tot.wins[i])
		}
		return median(xs)
	}
	sec := cfg.slice().Seconds()
	res.metrics = append(res.metrics,
		metric{"setup_s", median(tot.setupS), "s"},
		metric{"ops_per_s", perWindow(func(w *window) float64 { return float64(w.ops) / sec }), "ops/s"},
	)
	for c := opClass(0); c < numClasses; c++ {
		res.metrics = append(res.metrics,
			metric{classNames[c] + "_p50_us", perWindow(func(w *window) float64 { return us(w.lat[c].quantile(0.50)) }), "us"},
			metric{classNames[c] + "_p99_us", perWindow(func(w *window) float64 { return us(w.lat[c].quantile(0.99)) }), "us"},
		)
	}
	res.metrics = append(res.metrics,
		metric{"scan_keys_per_s", perWindow(func(w *window) float64 { return float64(w.scanKeys) / sec }), "keys/s"},
		metric{"heap_bytes_per_key", median(tot.perKey), "B/key"},
	)
	fmt.Printf("rounds %d, setup_s %v, heap_bytes_per_key %v\n", len(tot.setupS), tot.setupS, tot.perKey)
	fmt.Print("ops per slice:")
	for i := range tot.wins {
		fmt.Printf(" %d", tot.wins[i].ops)
	}
	fmt.Println()
	for c := opClass(0); c < numClasses; c++ {
		least := tot.all.lat[c].n
		for i := range tot.wins {
			least = min(least, tot.wins[i].lat[c].n)
		}
		fmt.Printf("%s samples: %d in %d slices, at least %d per slice\n", classNames[c], tot.all.lat[c].n, len(tot.wins), least)
	}
	for c := opClass(0); c < numClasses; c++ {
		res.metrics = append(res.metrics, metric{classNames[c] + ".count", float64(tot.all.lat[c].n), "count"})
	}
	if !cfg.traced {
		return res, nil
	}

	tr := newTracer(time.Now())
	for _, t := range tot.trs {
		tr.merge(t)
	}
	layer := func(n spanName) *hist { return tr.layer[n] }
	per := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	ops := res.attempted
	res.metrics = append(res.metrics,
		metric{"sharded.cross_commit_p50_us", us(layer(spCommitCross).quantile(0.5)), "us"},
		metric{"sharded.single_commit_p50_us", us(layer(spCommitSingle).quantile(0.5)), "us"},
		metric{"sharded.readonly_commit_p50_us", us(layer(spCommitRO).quantile(0.5)), "us"},
		metric{"sharded.shards_per_write", per(tr.writeShards, tr.writes), "count"},
		metric{"sharded.shards_per_scan", per(tr.scanShards, tr.scans), "count"},
		metric{"tx.stage_ns_per_op", per(layer(spStage).sum, tr.staged), "ns"},
		metric{"tx.ops_per_commit", per(tr.staged, tr.commits), "count"},
		metric{"core.scan_ns_per_key", per(layer(spScan).sum, tr.coreScanKeys), "ns"},
		metric{"core.get_p50_us", us(layer(spGet).quantile(0.5)), "us"},
		metric{"core.single_write_p50_us", us(layer(spWrite).quantile(0.5)), "us"},
		metric{"stm.starts", float64(tot.stm.Starts), "count"},
		metric{"stm.commits", float64(tot.stm.Commits), "count"},
		metric{"stm.aborts", float64(tot.stm.Aborts), "count"},
		metric{"stm.commit_ratio", per(tot.stm.Commits, tot.stm.Starts), "ratio"},
		metric{"stm.prepare_conflicts", float64(tot.stm.PrepareConflicts), "count"},
		metric{"stm.max_retry", float64(tot.stm.MaxRetry), "count"},
		metric{"stm.extensions", float64(tot.stm.Extensions), "count"},
		metric{"epoch.retired", float64(tot.retired), "count"},
		metric{"epoch.reclaimed", float64(tot.reclaimed), "count"},
		metric{"epoch.backlog", float64(tot.backlog), "count"},
		metric{"epoch.flush_ms", tot.flushMs, "ms"},
		metric{"gc.allocs_per_op", per(tot.allocs, ops), "count"},
		metric{"gc.alloc_bytes_per_op", per(tot.bytes, ops), "B"},
		metric{"gc.cycles", float64(tot.cycles), "count"},
		metric{"gc.pause_total_ms", float64(tot.pauseNs) / 1e6, "ms"},
		metric{"client.gen_ns_per_op", per(tot.genNs, ops), "ns"},
		metric{"client.check_ns_per_op", per(tot.checkNs, ops), "ns"},
		metric{"scan.keys_mean", per(tr.scanKeys, tr.scans), "count"},
	)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return res, err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.tsv", w.name, cfg.seed))
	if err := dumpSpans(path, tot.trs); err != nil {
		return res, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return res, nil
}

// slices is the number of one-second slices a round measures; slice is
// their length.
func (cfg config) slices() int { return max(1, int(cfg.seconds/float64(cfg.rounds)+0.5)) }

func (cfg config) slice() time.Duration {
	return time.Duration(cfg.seconds / float64(cfg.rounds) / float64(cfg.slices()) * float64(time.Second))
}

func newWindow() window {
	var w window
	for c := range w.lat {
		w.lat[c] = newHist()
	}
	return w
}

// primeSeconds is how long the priming round runs. A fresh process runs
// its first seconds well below speed while its heap grows into memory the
// host has not yet backed; the priming round pays that before anything
// is timed.
const primeSeconds = 3

// prime sets up a store and runs the workload on it, checked but neither
// timed nor counted, then drops it.
func prime(w *workload, cfg config) error {
	inst, err := setupOnce(w, cfg, roundSeed(cfg.seed, -1), w.opts)
	if err != nil {
		return err
	}
	cls := inst.clients()
	recs := make([]*recorder, len(cls))
	for c := range recs {
		recs[c] = newRecorder(1, time.Hour)
	}
	wd := newWatchdog(cfg, w.name+"-prime")
	stop := newStopper()
	done := runClients(cls, wd, recs, nil, stop, 0, 0)
	select {
	case <-time.After(primeSeconds * time.Second):
	case <-stop.ch:
	}
	stop.halt()
	stuck := waitClients(done, wd, cfg.bound+time.Second)
	wd.halt()
	if stuck > 0 {
		return fmt.Errorf("priming: %d client(s) stuck in an operation", stuck)
	}
	for _, r := range recs {
		if r.err != nil {
			return fmt.Errorf("priming: %w", r.err)
		}
	}
	return nil
}

// runRound sets up one store, measures it and checks it, adding the
// outcome to tot.
func runRound(w *workload, cfg config, round int, tot *totals) error {
	opts := append([]leaplist.Option{}, w.opts...)
	var coll *epoch.Collector
	if cfg.traced {
		coll = epoch.NewCollector()
		opts = append(opts, leaplist.WithCollector(coll), leaplist.WithSTMStats(true))
	}
	recs := make([]*recorder, numClients)
	for c := range recs {
		recs[c] = newRecorder(cfg.slices(), cfg.slice())
	}
	baseHeap := liveHeap()
	t := time.Now()
	inst, err := setupOnce(w, cfg, roundSeed(cfg.seed, round), opts)
	if err != nil {
		return err
	}
	tot.setupS = append(tot.setupS, time.Since(t).Seconds())

	stm0 := inst.store().STMStats()
	var retired0, reclaimed0 uint64
	if coll != nil {
		retired0, reclaimed0 = coll.Counters()
	}
	gc0 := readGC()
	wd := newWatchdog(cfg, w.name)
	stop := newStopper()
	t0 := time.Now()
	for _, r := range recs {
		r.start = t0
	}
	done := runClients(inst.clients(), wd, recs, tot.trs, stop, 0, uint64(round)<<56)
	timer := time.NewTimer(time.Duration(cfg.slices()) * cfg.slice())
	select {
	case <-timer.C:
	case <-stop.ch: // a checker failed
	}
	timer.Stop()
	stop.halt()
	stuck := waitClients(done, wd, cfg.bound+time.Second)
	wd.halt()
	gc1 := readGC()

	first := round * cfg.slices()
	for _, r := range recs {
		r.mu.Lock()
		for i := range r.win {
			tot.wins[first+i].add(&r.win[i])
			tot.all.add(&r.win[i])
		}
		tot.genNs += r.genNs
		tot.checkNs += r.checkNs
		if r.err != nil && tot.err == nil {
			tot.err = r.err
		}
		r.mu.Unlock()
		tot.attempted += r.started.Load()
	}
	tot.failed += uint64(wd.failed.Load())
	tot.stuck = stuck
	tot.allocs += gc1.allocs - gc0.allocs
	tot.bytes += gc1.allocBytes - gc0.allocBytes
	tot.cycles += gc1.cycles - gc0.cycles
	tot.pauseNs += gc1.pauseNs - gc0.pauseNs
	if stuck > 0 {
		return nil
	}
	if coll != nil {
		stm1 := inst.store().STMStats()
		tot.stm.Starts += stm1.Starts - stm0.Starts
		tot.stm.Commits += stm1.Commits - stm0.Commits
		tot.stm.Aborts += stm1.Aborts - stm0.Aborts
		tot.stm.PrepareConflicts += stm1.PrepareConflicts - stm0.PrepareConflicts
		tot.stm.Extensions += stm1.Extensions - stm0.Extensions
		tot.stm.MaxRetry = max(tot.stm.MaxRetry, stm1.MaxRetry)
		retired1, reclaimed1 := coll.Counters()
		tot.retired += retired1 - retired0
		tot.reclaimed += reclaimed1 - reclaimed0
		tot.backlog += retired1 - reclaimed1
		ft := time.Now()
		coll.Flush()
		tot.flushMs += float64(time.Since(ft)) / 1e6
	}
	if tot.err == nil {
		tot.err = inst.finalCheck()
	}
	live, heap := inst.liveKeys(), liveHeap()
	runtime.KeepAlive(inst) // the store must be live while the heap is read
	if live > 0 && heap > baseHeap {
		tot.perKey = append(tot.perKey, float64(heap-baseHeap)/float64(live))
	}
	return nil
}

// waitClients waits, at most limit, until every client has returned or
// is stuck in an operation the watchdog has counted failed, and returns
// the number of clients that have not returned.
func waitClients(done []chan struct{}, wd *watchdog, limit time.Duration) int {
	deadline := time.Now().Add(limit)
	for {
		stuck, running := 0, 0
		for c, d := range done {
			select {
			case <-d:
			default:
				if wd.stuck(c) {
					stuck++
				} else {
					running++
				}
			}
		}
		if running == 0 || time.Now().After(deadline) {
			return stuck + running
		}
		time.Sleep(5 * time.Millisecond)
	}
}
