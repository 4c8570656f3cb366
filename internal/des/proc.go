//go:build go1.23

package des

import (
	"fmt"
	"iter"
)

// Proc is a simulated process: an iter.Pull coroutine that runs
// cooperatively under the kernel. Only the coroutine holding the token
// executes; every blocking call parks the process and runs the event loop
// in place until some event resumes a process: p itself, and the call
// returns, or another one, and p yields to the RunUntil caller (see the
// package comment).
//
// A Proc must only be used from its own coroutine (the function passed to
// Spawn). Kernel callbacks must never call parking methods.
type Proc struct {
	k          *Kernel
	name       string
	resume     func() (struct{}, bool) // run p until it parks or ends; RunUntil's loop only
	stop       func()                  // unwind p's parked coroutine; deadlock path only
	yield      func(struct{}) bool     // hand the token back to the RunUntil caller
	wake       func()                  // bound once at Spawn; schedule it to resume the process
	terminated bool
	done       *Future[struct{}]
	prev, next *Proc // neighbours in the kernel's live list
}

// Spawn creates a process executing fn, scheduled to start at the current
// virtual time. It returns immediately; the process runs once the kernel
// reaches its start event.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name}
	p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer recoverUnwind()
		p.yield = yield
		fn(p)
		k.exit(p)
	})
	p.wake = func() { k.switchTo(p) }
	p.done = NewFuture[struct{}](k)
	p.prev = k.last
	if k.last != nil {
		k.last.next = p
	} else {
		k.first = p
	}
	k.last = p
	k.At(k.now, p.wake)
	return p
}

// exit terminates p after its body returns: it leaves the live list and
// resolves its Done future. The coroutine then ends, which hands the token
// back to the RunUntil caller.
func (k *Kernel) exit(p *Proc) {
	p.terminated = true
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		k.first = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		k.last = p.prev
	}
	p.done.Set(struct{}{})
}

// switchTo records that the running callback resumes p; the loop hands p
// the token once the callback returns. It must be the callback's last
// action, and a callback resumes at most one process.
func (k *Kernel) switchTo(p *Proc) {
	if p.terminated {
		return
	}
	k.handoff = p
}

// park runs the event loop in place until some event resumes a process. If
// that is p itself, park returns at once; otherwise p yields to the
// RunUntil caller, leaving it the process to resume, and park returns when
// the caller resumes p again. A wakeup must already be registered,
// otherwise the kernel will report a deadlock when the queue drains. A
// deadlocked kernel stops the coroutine instead of resuming it: yield then
// reports false, and park unwinds the process body.
func (p *Proc) park() {
	if q := p.k.dispatch(); q != p {
		p.k.handoff = q
		if !p.yield(struct{}{}) {
			panic(unwind{})
		}
	}
}

// unwind is the panic value that ends a stopped process's body.
type unwind struct{}

// recoverUnwind, deferred by each coroutine, lets an unwound body end its
// coroutine quietly; any other panic keeps propagating to the RunUntil
// caller.
func recoverUnwind() {
	if r := recover(); r != nil {
		if _, ok := r.(unwind); !ok {
			panic(r)
		}
	}
}

// Name returns the process name (used in diagnostics).
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.k.now }

// Sleep suspends the process for d virtual seconds (d ≤ 0 yields without
// advancing time, allowing same-time events scheduled earlier to run).
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		d = 0
	}
	p.k.After(d, p.wake)
	p.park()
}

// Join blocks until q terminates.
func (p *Proc) Join(q *Proc) { q.done.Get(p) }

// Done returns a future resolved when the process terminates.
func (p *Proc) Done() *Future[struct{}] { return p.done }

func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }

// Future is a write-once value that processes can block on. The zero value
// is invalid; use NewFuture.
type Future[T any] struct {
	k       *Kernel
	set     bool
	val     T
	waiters []*Proc
}

// NewFuture returns an unresolved future bound to k.
func NewFuture[T any](k *Kernel) *Future[T] {
	return &Future[T]{k: k}
}

// Set resolves the future and wakes all waiters (at the current virtual
// time, in wait order). Setting twice panics: futures are write-once.
func (f *Future[T]) Set(v T) {
	if f.set {
		panic("des: Future.Set called twice")
	}
	f.set = true
	f.val = v
	ws := f.waiters
	f.waiters = nil
	for _, w := range ws {
		f.k.At(f.k.now, w.wake)
	}
}

// IsSet reports whether the future has been resolved.
func (f *Future[T]) IsSet() bool { return f.set }

// Get blocks p until the future resolves, then returns the value.
func (f *Future[T]) Get(p *Proc) T {
	for !f.set {
		f.waiters = append(f.waiters, p)
		p.park()
	}
	return f.val
}

// Peek returns the value and whether it was set, without blocking.
func (f *Future[T]) Peek() (T, bool) { return f.val, f.set }

// Signal is a broadcast condition variable for processes. Waiters park until
// the next Broadcast; there is no counting (a Broadcast with no waiters is
// lost), matching classic condition-variable semantics.
type Signal struct {
	k       *Kernel
	waiters []*sigWaiter
}

type sigWaiter struct {
	p        *Proc
	timer    Timer // zero value when waiting without timeout
	done     bool
	signaled bool
}

// NewSignal returns a Signal bound to k.
func NewSignal(k *Kernel) *Signal { return &Signal{k: k} }

// Wait parks p until the next Broadcast.
func (s *Signal) Wait(p *Proc) { s.WaitTimeout(p, -1) }

// WaitTimeout parks p until the next Broadcast or until d seconds elapse
// (d < 0 waits forever). It reports whether the wakeup was a Broadcast.
func (s *Signal) WaitTimeout(p *Proc, d float64) bool {
	// Compact timed-out entries so repeated timeouts do not accumulate.
	live := s.waiters[:0]
	for _, old := range s.waiters {
		if !old.done {
			live = append(live, old)
		}
	}
	s.waiters = live
	w := &sigWaiter{p: p}
	s.waiters = append(s.waiters, w)
	if d >= 0 {
		w.timer = s.k.After(d, func() {
			if w.done {
				return
			}
			w.done = true
			s.k.switchTo(w.p)
		})
	}
	p.park()
	return w.signaled
}

// Broadcast wakes every current waiter at the current virtual time.
func (s *Signal) Broadcast() {
	ws := s.waiters
	s.waiters = nil
	for _, w := range ws {
		if w.done {
			continue
		}
		w.done = true
		w.signaled = true
		w.timer.Cancel()
		s.k.At(s.k.now, w.p.wake)
	}
}

// Semaphore is a counting semaphore used e.g. to model CPU cores: at most
// cap processes hold a unit simultaneously; further acquirers queue FIFO.
type Semaphore struct {
	k       *Kernel
	avail   int
	waiters []*Proc
}

// NewSemaphore returns a semaphore with n available units.
func NewSemaphore(k *Kernel, n int) *Semaphore {
	if n < 0 {
		panic("des: negative semaphore capacity")
	}
	return &Semaphore{k: k, avail: n}
}

// Acquire takes one unit, parking p until one is available.
func (s *Semaphore) Acquire(p *Proc) {
	if s.avail > 0 {
		s.avail--
		return
	}
	s.waiters = append(s.waiters, p)
	p.park()
	// Ownership was transferred directly by Release; avail untouched.
}

// Release returns one unit, waking the longest-waiting process if any.
func (s *Semaphore) Release() {
	if len(s.waiters) > 0 {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.k.At(s.k.now, w.wake)
		return
	}
	s.avail++
}

// Available reports the number of free units (waiters imply zero).
func (s *Semaphore) Available() int { return s.avail }
