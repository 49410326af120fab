package main

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// digest describes the operation a client has just generated.
func digest(c client) string {
	switch c := c.(type) {
	case *pointClient:
		return fmt.Sprint(c.kind, c.idx, c.n, c.payload)
	case *scanClient:
		return fmt.Sprint(c.kind, c.idx, c.n, c.payload)
	case *hotClient:
		return fmt.Sprint(c.kind, c.cold, c.idx, c.n, c.payload)
	case *ledgerClient:
		sh := func(l *ledgerShard) int {
			if l == nil {
				return -1
			}
			return l.sh
		}
		return fmt.Sprint(c.kind, sh(c.a), sh(c.b), c.ia, c.ib, c.amount, sh(c.sh), c.acctSh, c.qlo, c.qhi)
	}
	panic(fmt.Sprintf("unknown client %T", c))
}

// smallSetups build every workload at a size a unit test can afford.
var smallSetups = map[string]func(seed uint64) (instance, error){
	"point-zipf": func(seed uint64) (instance, error) { return setupPointN(seed, nil, 1<<14) },
	"scan-churn": func(seed uint64) (instance, error) { return setupScanN(seed, nil, 1<<14) },
	"ledger":     func(seed uint64) (instance, error) { return setupLedger(seed, nil) },
	"hot-shared": func(seed uint64) (instance, error) { return setupHot(seed, nil) },
}

// opSequence sets a workload up and runs steps operations per client on
// one goroutine, checking each, and returns what was generated.
func opSequence(t *testing.T, name string, seed uint64, steps int) []string {
	t.Helper()
	inst, err := smallSetups[name](seed)
	if err != nil {
		t.Fatalf("%s setup: %v", name, err)
	}
	var out []string
	for i := 0; i < steps; i++ {
		for c, cl := range inst.clients() {
			cl.gen()
			out = append(out, fmt.Sprintf("%d:%s", c, digest(cl)))
			cl.exec(nil)
			if err := cl.check(); err != nil {
				t.Fatalf("%s step %d client %d: %v", name, i, c, err)
			}
		}
	}
	if err := inst.finalCheck(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

func TestGeneratorIsDeterministic(t *testing.T) {
	for name := range smallSetups {
		t.Run(name, func(t *testing.T) {
			a := opSequence(t, name, 42, 2000)
			b := opSequence(t, name, 42, 2000)
			if !slices.Equal(a, b) {
				t.Fatal("the same seed generated different operations")
			}
			if c := opSequence(t, name, 43, 2000); slices.Equal(a, c) {
				t.Fatal("different seeds generated the same operations")
			}
		})
	}
}

func TestWorkloadsAreRegistered(t *testing.T) {
	for name := range smallSetups {
		if findWorkload(name) == nil {
			t.Errorf("workload %s is not registered", name)
		}
	}
}

// blockingClient's operation never returns once it reaches blockAt,
// until release is closed.
type blockingClient struct {
	n, blockAt int
	release    chan struct{}
}

func (b *blockingClient) gen() {}

func (b *blockingClient) exec(*tracer) (opClass, int) {
	b.n++
	if b.n == b.blockAt {
		<-b.release
	}
	return classGet, 0
}

func (b *blockingClient) check() error { return nil }

func TestWatchdogCountsStuckOperationAndRunEnds(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	cls := []client{&blockingClient{blockAt: 100, release: release}, &blockingClient{}}
	recs := []*recorder{newRecorder(1, time.Hour), newRecorder(1, time.Hour)}
	cfg := config{seed: 1, bound: 50 * time.Millisecond, outDir: t.TempDir()}
	wd := newWatchdog(cfg, "test")
	stop := newStopper()
	done := runClients(cls, wd, recs, nil, stop, 0, 0)
	time.Sleep(300 * time.Millisecond)
	stop.halt()
	stuck := waitClients(done, wd, time.Second)
	wd.halt()
	if stuck != 1 {
		t.Fatalf("stuck clients %d, want 1", stuck)
	}
	if f := wd.failed.Load(); f != 1 {
		t.Fatalf("failed operations %d, want 1", f)
	}
	if got := recs[0].started.Load(); got != 100 {
		t.Fatalf("client 0 attempted %d operations, want 100", got)
	}
}
