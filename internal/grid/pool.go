package grid

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Options configures a pool run.
type Options struct {
	// Workers is the pool size; ≤0 selects GOMAXPROCS. It is clamped to the
	// cell count (idle workers would only cost startup).
	Workers int
	// Timeout bounds one cell attempt; 0 disables. A timed-out attempt is
	// abandoned, not killed (see Attempt).
	Timeout time.Duration
	// Retries is the number of extra attempts after a failed one (error,
	// panic or timeout). 0 means one attempt.
	Retries int
	// Progress, if set, is called serially (from Run's goroutine) after each
	// cell completes.
	Progress func(done, total int, r Result)
}

// Run executes the specs over the pool and calls deliver serially (from the
// calling goroutine) with each cell's Result as it completes, in completion
// order. Cell failures are reported in their Result, never as a run error —
// one bad cell fails that cell, not the run. The returned stats cover the
// whole run: per-worker busy time, wall clock, failure and retry counts.
func Run(specs []Spec, opts Options, deliver func(Result)) (metrics.GridStats, error) {
	n := clampWorkers(opts.Workers, len(specs))
	stats := metrics.GridStats{Cells: len(specs), BusySeconds: make([]float64, n)}
	if len(specs) == 0 {
		return stats, nil
	}

	queue := make(chan Spec, len(specs))
	for _, s := range scheduleOrder(specs) {
		queue <- s
	}
	close(queue)

	results := make(chan Result, n)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for s := range queue {
				res := Attempt(s, opts.Timeout, opts.Retries)
				res.Worker = id
				results <- res
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	done := 0
	for r := range results {
		done++
		stats.BusySeconds[r.Worker] += r.Seconds
		if r.Err != "" {
			stats.Failed++
		}
		if r.Attempts > 1 {
			stats.Retried++
		}
		if opts.Progress != nil {
			opts.Progress(done, len(specs), r)
		}
		if deliver != nil {
			deliver(r)
		}
	}
	stats.WallSeconds = time.Since(start).Seconds()
	return stats, nil
}

// clampWorkers resolves the requested pool size: ≤0 means GOMAXPROCS, and
// the result is clamped to [1, cells].
func clampWorkers(requested, cells int) int {
	n := requested
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if cells > 0 && n > cells {
		n = cells
	}
	if n < 1 {
		n = 1
	}
	return n
}

// scheduleOrder returns the longest-cell-first run order: descending
// self-estimated cost, stable on the enumeration order so equal-cost cells
// keep a deterministic sequence. Starting the costliest cells first keeps
// the pool's tail short: the last cells to finish are the cheap ones.
func scheduleOrder(specs []Spec) []Spec {
	out := append([]Spec(nil), specs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost > out[j].Cost })
	return out
}

// Attempt executes one cell in this process: up to 1+retries attempts, each
// bounded by timeout (0: unbounded). A timed-out attempt is abandoned: its
// goroutine is left to finish and its result discarded, because a stuck
// simulation cannot be killed, only orphaned. The pool and the durable
// queue's drain loops both run cells through it, so
// `-cell-timeout`/`-cell-retries` mean the same thing with and without a
// queue.
func Attempt(s Spec, timeout time.Duration, retries int) Result {
	var res Result
	start := time.Now()
	for attempt := 1; ; attempt++ {
		res = attemptOnce(s, timeout)
		res.Attempts = attempt
		if res.Err == "" || attempt > retries {
			break
		}
	}
	res.Seconds = time.Since(start).Seconds()
	return res
}

// attemptOnce executes one attempt, bounding it with the timeout if one is
// set.
func attemptOnce(s Spec, timeout time.Duration) Result {
	if timeout <= 0 {
		return RunSpec(s)
	}
	done := make(chan Result, 1)
	go func() { done <- RunSpec(s) }()
	select {
	case r := <-done:
		return r
	case <-time.After(timeout):
		return Result{Coord: s.Coord, Kind: s.Kind,
			Err: fmt.Sprintf("cell timed out after %v", timeout)}
	}
}
