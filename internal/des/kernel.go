// Package des implements a deterministic discrete-event simulation kernel
// with cooperative coroutine processes, in the style of SimGrid actors (the
// substrate the paper's WRENCH implementation runs on).
//
// # The token model
//
// Each process is an iter.Pull coroutine, and exactly one coroutine runs at
// any instant: the one holding the scheduling token, which is either the
// RunUntil caller or a process. The event loop runs on whichever of them
// holds it — the RunUntil caller, or the process that just parked (Sleep,
// Future.Get, Signal.Wait, ...). Events fire in (time, sequence) order and
// sequence numbers are allocated deterministically, so where the loop runs
// never shows in a run's results.
//
// A callback resumes a process by scheduling a wake-up; the wake-up records
// the handoff and the loop performs it once the callback returns. Resuming
// the process that runs the loop (a lone Sleep, say) costs no switch at all:
// its park simply returns. Resuming any other process yields the parked
// process back to the RunUntil caller, which resumes the next one. A process
// that terminates, and a loop that drains or reaches the horizon on a
// process, likewise yield back to the caller.
//
// The callback contract: a callback resumes at most one process, and does
// so as its last action (the wake-ups this package schedules all do).
//
// A panic in a process body, or in a callback that runs while that process
// holds the token, is re-raised by iter.Pull on the RunUntil caller with its
// original value, so it can be recovered like a panic in a callback run by
// the caller itself. A process body that calls runtime.Goexit (t.FailNow,
// say) ends the RunUntil caller's goroutine the same way. The kernel is
// unusable afterwards.
//
// # Complexity of the event core
//
// The kernel is sized for long simulations that schedule and cancel events
// at every step (the fluid model retargets its "next completion" timer on
// nearly every activity start/completion), so the event core is kept lean:
//
//	At/After, future time       O(log n) heap push
//	At/After, current time      O(1) — same-time FIFO, bypasses the heap
//	Timer.Cancel, queued event  O(log n) heap unlink via the tracked index
//	                            (canceled events leave the queue at once
//	                            instead of rotting until their deadline)
//	Timer.Cancel, fired/stale   O(1) no-op (generation check)
//	event dispatch              O(log n) pop, O(1) for same-time events
//	process resume              0 switches (the process running the loop)
//	                            or 2 coroutine switches (any other process),
//	                            no channel, no scheduler; no allocation
//	park, spawn, terminate      O(1) — no per-park bookkeeping
//
// event structs are recycled through a free list, so steady-state
// scheduling does not allocate; a generation counter makes Timer handles
// to recycled events harmlessly stale. Each process binds its wake-up
// callback once at Spawn, so waking it does not allocate either.
package des

import (
	"container/heap"
	"fmt"
)

// event is a scheduled callback. Events with equal times fire in scheduling
// order (seq), which keeps runs reproducible.
type event struct {
	t        float64
	seq      uint64
	fn       func()
	canceled bool
	// index is the position in the kernel's event heap, or one of the
	// sentinels below for events outside the heap.
	index int
	// gen is bumped every time the event struct is released to the free
	// list; Timer handles snapshot it so a handle to a recycled event
	// cannot cancel the event's next incarnation.
	gen uint64
	k   *Kernel
}

const (
	eventFired = -1 // fired, canceled, or sitting in the free list
	eventFast  = -2 // queued in the same-time FIFO, not the heap
)

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Timer is a handle on a scheduled event that can be canceled before it
// fires. Canceling an already-fired timer is a no-op. It is a small value
// (the zero value is an inert handle), so scheduling does not allocate
// beyond the pooled event itself.
type Timer struct {
	ev  *event
	gen uint64
}

// Cancel prevents the timer's callback from running. A heap-queued event is
// unlinked immediately (O(log n)), so cancel-heavy workloads do not grow
// the event queue. Safe to call multiple times.
func (t Timer) Cancel() {
	if t.ev == nil {
		return
	}
	e := t.ev
	if e.gen != t.gen {
		return // already fired or recycled
	}
	switch {
	case e.index >= 0:
		k := e.k
		heap.Remove(&k.events, e.index)
		k.release(e)
	case e.index == eventFast:
		// Same-time FIFO entries are about to fire anyway; flag them and
		// let the dispatch loop skip and recycle them.
		e.canceled = true
	}
}

// Kernel is the simulation engine: a virtual clock plus an event queue.
// The zero value is not usable; call NewKernel.
type Kernel struct {
	now    float64
	seq    uint64
	events eventHeap
	// fastq holds events scheduled at the current virtual time: they fire
	// before the clock can advance, so they never need heap ordering. The
	// slice is consumed from fastHead and recycled when drained.
	fastq    []*event
	fastHead int
	free     []*event
	horizon  float64 // RunUntil's bound, read by whichever coroutine runs the loop
	// handoff is the process the running callback resumed; the loop hands it
	// the token once the callback returns. A process that yields to the
	// RunUntil caller leaves the next process to resume here (nil when the
	// run stopped).
	handoff *Proc
	// first and last bound the list of live processes, in spawn order.
	first, last *Proc
	resumes     int // coroutine resumes by the RunUntil caller (for work-count tests)
	running     bool
}

// NewKernel returns an empty simulation at time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current virtual time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// newEvent takes an event struct from the free list (or allocates one) and
// stamps it with the next sequence number.
func (k *Kernel) newEvent(t float64, fn func()) *event {
	var e *event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		e = &event{k: k}
	}
	e.t = t
	e.seq = k.seq
	e.fn = fn
	e.canceled = false
	k.seq++
	return e
}

// release returns a fired or canceled event to the free list, invalidating
// outstanding Timer handles via the generation counter.
func (k *Kernel) release(e *event) {
	e.fn = nil
	e.index = eventFired
	e.gen++
	k.free = append(k.free, e)
}

// At schedules fn to run at absolute virtual time t (clamped to now).
// Events at the current time bypass the heap entirely.
func (k *Kernel) At(t float64, fn func()) Timer {
	if t <= k.now {
		e := k.newEvent(k.now, fn)
		e.index = eventFast
		k.fastq = append(k.fastq, e)
		return Timer{ev: e, gen: e.gen}
	}
	e := k.newEvent(t, fn)
	heap.Push(&k.events, e)
	return Timer{ev: e, gen: e.gen}
}

// After schedules fn to run d seconds from now.
func (k *Kernel) After(d float64, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// Warp advances the virtual clock by delta seconds and shifts every pending
// event — heap and same-time FIFO alike — by the same amount. A uniform
// shift preserves every (time, seq) ordering, so the heap needs no
// re-ordering and determinism is untouched: the simulation resumes exactly
// where it was, delta seconds later. This is the fast-forward primitive —
// skipping a steady-state span analytically means warping the clock past it
// while periodic machinery (flusher timers, samplers) keeps its relative
// phase. Negative deltas are rejected: the clock is monotonic.
func (k *Kernel) Warp(delta float64) {
	if delta < 0 {
		panic(fmt.Sprintf("des: Warp by negative delta %g", delta))
	}
	if delta == 0 {
		return
	}
	k.now += delta
	for _, e := range k.events {
		e.t += delta
	}
	for i := k.fastHead; i < len(k.fastq); i++ {
		k.fastq[i].t += delta
	}
}

// ErrDeadlock is returned by Run when processes remain parked but no event
// can ever wake them.
type ErrDeadlock struct {
	Blocked []string // names of the parked processes, in spawn order
}

func (e *ErrDeadlock) Error() string {
	return fmt.Sprintf("des: deadlock: %d process(es) parked with empty event queue: %v",
		len(e.Blocked), e.Blocked)
}

// Run executes events until the queue drains, then reports a deadlock error
// if any spawned process is still parked (a real modeling bug, e.g. a Wait
// with no matching Broadcast).
func (k *Kernel) Run() error { return k.RunUntil(-1) }

// RunUntil executes events with time ≤ horizon (horizon < 0 means no bound).
// Events beyond the horizon remain queued; the clock advances to the horizon
// if it was reached; processes parked then stay parked, and a later RunUntil
// resumes them. A run that ends in ErrDeadlock unwinds every parked process
// (their deferred calls run), so none of them can run again. A panic raised
// in a process during the run is re-raised here with its original value.
func (k *Kernel) RunUntil(horizon float64) error {
	if k.running {
		return fmt.Errorf("des: Run called re-entrantly")
	}
	k.running = true
	defer func() { k.running = false }()
	k.horizon = horizon
	for p := k.dispatch(); p != nil; p = k.dispatch() {
		k.resumes++
		p.resume()
	}
	if k.QueueLen() == 0 && k.first != nil {
		// Drained with live processes: every one of them is parked, and
		// nothing can resume them. Stop their coroutines, so their
		// goroutines and everything they reach (this kernel included) can
		// be freed.
		err := &ErrDeadlock{Blocked: k.liveNames()}
		for p := k.first; p != nil; p = p.next {
			p.stop()
		}
		return err
	}
	return nil
}

// next pops the earliest due event, or returns nil once the queue is
// drained or its earliest event lies beyond the horizon (the clock then
// advances to the horizon).
func (k *Kernel) next() *event {
	for {
		// Peek the earliest event across the same-time FIFO and the heap.
		// FIFO entries fire at k.now; a heap event also due at k.now fires
		// first only if it was scheduled earlier (smaller seq).
		var next *event
		fromHeap := false
		if k.fastHead < len(k.fastq) {
			next = k.fastq[k.fastHead]
			if len(k.events) > 0 && k.events[0].t <= next.t && k.events[0].seq < next.seq {
				next = k.events[0]
				fromHeap = true
			}
		} else if len(k.events) > 0 {
			next = k.events[0]
			fromHeap = true
		} else {
			return nil
		}
		if k.horizon >= 0 && next.t > k.horizon {
			k.now = k.horizon
			return nil
		}
		if fromHeap {
			heap.Pop(&k.events)
		} else {
			k.fastq[k.fastHead] = nil
			k.fastHead++
			if k.fastHead == len(k.fastq) {
				k.fastq = k.fastq[:0]
				k.fastHead = 0
			}
		}
		if next.canceled {
			k.release(next)
			continue
		}
		k.now = next.t
		return next
	}
}

// dispatch fires events until one resumes a process, which it returns, or
// until the run stops (nil). A handoff left by a yielding process is
// returned at once.
func (k *Kernel) dispatch() *Proc {
	for k.handoff == nil {
		e := k.next()
		if e == nil {
			return nil
		}
		fn := e.fn
		k.release(e)
		fn()
	}
	p := k.handoff
	k.handoff = nil
	return p
}

// QueueLen reports the number of queued events (heap plus same-time FIFO),
// including not-yet-collected canceled same-time entries. It exists for
// tests and diagnostics.
func (k *Kernel) QueueLen() int { return len(k.events) + len(k.fastq) - k.fastHead }

// liveNames lists the live processes' names in spawn order.
func (k *Kernel) liveNames() []string {
	var names []string
	for p := k.first; p != nil; p = p.next {
		names = append(names, p.name)
	}
	return names
}
