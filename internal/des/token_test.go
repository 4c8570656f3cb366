package des

import (
	"fmt"
	"reflect"
	"testing"
)

// TestDeadlockListsSpawnOrder: a deadlock report names the parked processes
// in spawn order, identically on every run.
func TestDeadlockListsSpawnOrder(t *testing.T) {
	var want []string
	for i := 0; i < 8; i++ {
		want = append(want, fmt.Sprintf("p%d", i))
	}
	for run := 0; run < 20; run++ {
		k := NewKernel()
		s := NewSignal(k)
		for _, name := range want {
			k.Spawn(name, func(p *Proc) { s.Wait(p) })
		}
		// A process that terminates must drop out of the report.
		k.Spawn("done", func(p *Proc) {})
		err := k.Run()
		de, ok := err.(*ErrDeadlock)
		if !ok {
			t.Fatalf("run %d: err = %v, want ErrDeadlock", run, err)
		}
		if !reflect.DeepEqual(de.Blocked, want) {
			t.Fatalf("run %d: blocked = %v, want %v", run, de.Blocked, want)
		}
	}
}

type boom struct{ n int }

// runPanic runs k.Run and returns the value it panicked with.
func runPanic(t *testing.T, k *Kernel) (v any) {
	t.Helper()
	defer func() { v = recover() }()
	err := k.Run()
	t.Fatalf("Run returned %v, want a panic", err)
	return nil
}

// checkFreshKernel: after a panic has left one kernel unusable, a new one
// still schedules processes.
func checkFreshKernel(t *testing.T) {
	t.Helper()
	k := NewKernel()
	end := 0.0
	k.Spawn("after", func(p *Proc) {
		p.Sleep(2)
		end = p.Now()
	})
	if err := k.Run(); err != nil || end != 2 {
		t.Fatalf("fresh kernel: err = %v, end = %v", err, end)
	}
}

// TestPanicInProcessBodyReachesRun: a panic in a process body is re-raised
// on Run's caller with its original value.
func TestPanicInProcessBodyReachesRun(t *testing.T) {
	k := NewKernel()
	want := &boom{1}
	k.Spawn("bystander", func(p *Proc) { p.Sleep(10) })
	k.Spawn("victim", func(p *Proc) {
		p.Sleep(1)
		panic(want)
	})
	if got := runPanic(t, k); got != want {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	checkFreshKernel(t)
}

// TestPanicInCallbackOnProcessGoroutine: a callback that panics while a
// process goroutine runs the loop (here, the sleeper's, which parked
// before the t=1 event) reaches Run's caller with its original value.
func TestPanicInCallbackOnProcessGoroutine(t *testing.T) {
	k := NewKernel()
	want := &boom{2}
	k.Spawn("sleeper", func(p *Proc) { p.Sleep(5) })
	k.At(1, func() { panic(want) })
	if got := runPanic(t, k); got != want {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	checkFreshKernel(t)
}

// TestPanicInCallbackAfterTermination: the loop a terminating process runs
// forwards a callback's panic too.
func TestPanicInCallbackAfterTermination(t *testing.T) {
	k := NewKernel()
	want := &boom{3}
	k.Spawn("short", func(p *Proc) {})
	k.At(1, func() { panic(want) })
	if got := runPanic(t, k); got != want {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	checkFreshKernel(t)
}

// TestLoneSleeperNoHandoffs: a process resumed by its own wake-ups keeps
// the token; only its start and the final return to Run's caller cross
// goroutines. The handoff count does not grow with the number of sleeps.
func TestLoneSleeperNoHandoffs(t *testing.T) {
	const n = 1000
	k := NewKernel()
	var atStart, atEnd int
	k.Spawn("sleeper", func(p *Proc) {
		atStart = k.handoffs
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
		atEnd = k.handoffs
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if atEnd != atStart {
		t.Fatalf("%d sleeps made %d handoffs, want 0", n, atEnd-atStart)
	}
	if k.handoffs != 2 {
		t.Fatalf("run made %d handoffs, want 2 (start, return to Run)", k.handoffs)
	}
}

// TestPingPongHandoffs: two processes whose wake-ups alternate pass the
// token on every resume. Direct handoff pays one channel send per resume
// plus the final return to Run's caller; routing every resume through the
// kernel goroutine costs two (2N).
func TestPingPongHandoffs(t *testing.T) {
	const n = 1000 // resumes: two starts, then n-2 alternating wake-ups
	k := NewKernel()
	var order []string
	k.Spawn("ping", func(p *Proc) {
		p.Sleep(1)
		order = append(order, "ping")
		for i := 0; i < (n-2)/2-1; i++ {
			p.Sleep(2)
			order = append(order, "ping")
		}
	})
	k.Spawn("pong", func(p *Proc) {
		for i := 0; i < (n-2)/2; i++ {
			p.Sleep(2)
			order = append(order, "pong")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != n-2 {
		t.Fatalf("%d wake-ups, want %d", len(order), n-2)
	}
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			t.Fatalf("wake-ups %d and %d both resumed %s", i-1, i, order[i])
		}
	}
	if k.handoffs > n+2 {
		t.Fatalf("%d resumes made %d handoffs, want <= %d", n, k.handoffs, n+2)
	}
}
