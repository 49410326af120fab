package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"leaplist"
)

// The store under test: Sharded[uint64] with library defaults (LT, K=300,
// versioned links, hash index and fingers on) over four shards. Two
// closed-loop clients share it; in the shard-affine workloads client c
// owns shards 2c and 2c+1.
const (
	numShards  = 4
	numClients = 2
)

type opClass uint8

const (
	classGet opClass = iota
	classScan
	classWrite
	numClasses
)

var classNames = [numClasses]string{"get", "scan", "write"}

// client is one closed-loop client of a workload. The driver calls gen,
// exec and check in turn; only exec is timed as latency. The operation
// lives in the client, so the loop allocates nothing of its own.
type client interface {
	gen()                           // draw the next operation from the client's generator
	exec(tr *tracer) (opClass, int) // run it; returns its class and the pairs a scan returned
	check() error                   // verify the result against the model; update the model
}

// instance is one set-up store with its clients.
type instance interface {
	clients() []client
	// finalCheck verifies the whole store once every client has stopped.
	finalCheck() error
	// liveKeys is the number of keys the models say are stored.
	liveKeys() int
	store() *leaplist.Sharded[uint64]
}

type workload struct {
	name string
	// setup builds and bulk-loads a fresh store from the seed.
	setup func(seed uint64, opts []leaplist.Option) (instance, error)
	// opts are the store options beyond the library defaults.
	opts []leaplist.Option
	// warmOps is the fixed number of operations each client runs, checked
	// but untimed, before the measured window.
	warmOps int
}

// window holds the operations of one client that started in one slice
// of the measured window. Metrics are computed per slice and reported as
// the median over slices, so a short burst of noise on the host moves
// one slice and not the result.
type window struct {
	lat      [numClasses]*hist
	ops      uint64 // operations completed within the bound
	scanKeys uint64
}

// recorder holds one client's measurements; mu orders the client's
// updates with the main goroutine's final read, which may happen while
// the client is stuck inside an operation.
type recorder struct {
	mu      sync.Mutex
	start   time.Time     // start of the measured window
	slice   time.Duration // length of one window
	win     []window
	started atomic.Uint64 // operations attempted
	genNs   uint64
	checkNs uint64
	err     error
}

func newRecorder(windows int, slice time.Duration) *recorder {
	r := &recorder{win: make([]window, windows), slice: slice}
	for w := range r.win {
		for c := range r.win[w].lat {
			r.win[w].lat[c] = newHist()
		}
	}
	return r
}

func (w *window) add(o *window) {
	for c := range w.lat {
		w.lat[c].merge(o.lat[c])
	}
	w.ops += o.ops
	w.scanKeys += o.scanKeys
}

// at returns the window of an operation that started at t.
func (r *recorder) at(t time.Time) *window {
	i := int(t.Sub(r.start) / r.slice)
	return &r.win[max(0, min(i, len(r.win)-1))]
}

// watchdog bounds every client operation. inflight[c] holds the start of
// client c's operation in ns since base (0 when idle); the watchdog
// claims an overdue operation by negating it, counts it failed and saves
// every goroutine's stack.
type watchdog struct {
	base     time.Time
	bound    time.Duration
	inflight [numClients]atomic.Int64
	failed   atomic.Int64
	stackDir string
	label    string
	stop     chan struct{}
	done     chan struct{}
}

func (w *watchdog) enter(c int) { w.inflight[c].Store(int64(time.Since(w.base)) | 1) }

// leave reports whether the watchdog already counted the operation failed.
func (w *watchdog) leave(c int) bool { return w.inflight[c].Swap(0) < 0 }

func (w *watchdog) stuck(c int) bool { return w.inflight[c].Load() < 0 }

func (w *watchdog) run() {
	defer close(w.done)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-tick.C:
		}
		now := int64(time.Since(w.base))
		for c := range w.inflight {
			t := w.inflight[c].Load()
			if t > 0 && now-t > int64(w.bound) && w.inflight[c].CompareAndSwap(t, -t) {
				w.failed.Add(1)
				w.saveStacks(c)
			}
		}
	}
}

func (w *watchdog) saveStacks(c int) {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	path := filepath.Join(w.stackDir, fmt.Sprintf("stuck-%s-client%d.txt", w.label, c))
	if err := os.MkdirAll(w.stackDir, 0o755); err == nil {
		err = os.WriteFile(path, buf, 0o644)
		if err == nil {
			fmt.Fprintf(os.Stderr, "perfbench: client %d operation exceeded %v; stacks saved to %s\n", c, w.bound, path)
			return
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: client %d operation exceeded %v; could not save stacks\n", c, w.bound)
}

// stopper ends a run: clients poll flag between operations, and ch lets
// the main goroutine wake when a client stops the run early.
type stopper struct {
	flag atomic.Bool
	once sync.Once
	ch   chan struct{}
}

func newStopper() *stopper { return &stopper{ch: make(chan struct{})} }

func (s *stopper) halt() {
	s.flag.Store(true)
	s.once.Do(func() { close(s.ch) })
}

// runClients starts every client's closed loop; each runs until stop is
// set or, when limit > 0, for exactly limit operations. The returned
// channels close as the clients return.
func runClients(cls []client, wd *watchdog, recs []*recorder, trs []*tracer, stop *stopper, limit int, idBase uint64) []chan struct{} {
	done := make([]chan struct{}, len(cls))
	for c := range cls {
		done[c] = make(chan struct{})
		var tr *tracer
		if trs != nil {
			tr = trs[c]
		}
		go func(c int) {
			defer close(done[c])
			loop(c, cls[c], wd, recs[c], tr, stop, limit, idBase|uint64(c)<<48)
		}(c)
	}
	return done
}

func loop(c int, cl client, wd *watchdog, rec *recorder, tr *tracer, stop *stopper, limit int, idBase uint64) {
	for seq := uint64(0); !stop.flag.Load() && (limit == 0 || seq < uint64(limit)); seq++ {
		g0 := tr.start()
		cl.gen()
		g1 := tr.start()
		rec.started.Add(1)
		tr.beginOp(idBase | seq)
		wd.enter(c)
		t0 := time.Now()
		class, keys := cl.exec(tr)
		d := time.Since(t0)
		late := wd.leave(c)
		tr.endOp(int64(d))
		c0 := tr.start()
		err := cl.check()
		c1 := tr.start()

		rec.mu.Lock()
		if !late {
			w := rec.at(t0)
			w.lat[class].add(uint64(d))
			w.ops++
			if class == classScan {
				w.scanKeys += uint64(keys)
			}
		}
		rec.genNs += uint64(g1 - g0)
		rec.checkNs += uint64(c1 - c0)
		if err != nil && rec.err == nil {
			rec.err = err
		}
		rec.mu.Unlock()
		if err != nil {
			stop.halt()
			return
		}
	}
}
