package des

import (
	"fmt"
	"reflect"
	"runtime"
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
// the token, so its park returns without a coroutine switch; only its start
// is a resume by Run's caller. The resume count does not grow with the
// number of sleeps.
func TestLoneSleeperNoHandoffs(t *testing.T) {
	const n = 1000
	k := NewKernel()
	var atStart, atEnd int
	k.Spawn("sleeper", func(p *Proc) {
		atStart = k.resumes
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
		atEnd = k.resumes
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if atEnd != atStart {
		t.Fatalf("%d sleeps made %d resumes, want 0", n, atEnd-atStart)
	}
	if k.resumes != 1 {
		t.Fatalf("run made %d resumes, want 1 (the start)", k.resumes)
	}
}

// TestPingPongHandoffs: two processes whose wake-ups alternate pass the
// token on every resume. Each wake-up costs at most one resume by Run's
// caller (the parked process yields, the caller resumes the other one).
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
	if k.resumes > n {
		t.Fatalf("%d resumes made %d coroutine resumes, want <= %d", n, k.resumes, n)
	}
}

// TestRunUntilHorizonKeepsProcessesParked: a horizon reached while a
// process runs the loop leaves every process parked, and the next RunUntil
// resumes each where it stopped.
func TestRunUntilHorizonKeepsProcessesParked(t *testing.T) {
	k := NewKernel()
	var log []string
	for _, name := range []string{"a", "b"} {
		k.Spawn(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(1)
				log = append(log, fmt.Sprintf("%s@%g", name, p.Now()))
			}
		})
	}
	if err := k.RunUntil(1.5); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a@1", "b@1"}; !reflect.DeepEqual(log, want) || k.Now() != 1.5 {
		t.Fatalf("at the horizon: log = %v, now = %v; want %v, 1.5", log, k.Now(), want)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a@1", "b@1", "a@2", "b@2", "a@3", "b@3"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
}

// TestGoexitInProcessEndsRunCaller: a process body that calls
// runtime.Goexit (as t.FailNow does) does not quietly end that process; it
// ends the goroutine running the simulation, whose deferred calls run, and
// Run never returns.
func TestGoexitInProcessEndsRunCaller(t *testing.T) {
	k := NewKernel()
	k.Spawn("bystander", func(p *Proc) { p.Sleep(10) })
	quitter := k.Spawn("quitter", func(p *Proc) {
		p.Sleep(1)
		runtime.Goexit()
	})
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = k.Run()
		returned = true
	}()
	<-done
	if returned {
		t.Fatal("Run returned after a process called runtime.Goexit")
	}
	if quitter.Done().IsSet() {
		t.Fatal("the process that called runtime.Goexit terminated normally")
	}
}

// TestSpawnAllocs pins the allocations of spawning one trivial process and
// running it to completion on a warm kernel: the Proc, its wake-up closure,
// its Done future and its coroutine, of which iter.Pull's share is 8.
func TestSpawnAllocs(t *testing.T) {
	const want = 15
	k := NewKernel()
	allocs := testing.AllocsPerRun(100, func() {
		k.Spawn("p", func(p *Proc) {})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > want {
		t.Fatalf("spawn and run of one process: %v allocs, want <= %d", allocs, want)
	}
}
