package repair

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"zht/internal/metrics"
	"zht/internal/wire"
)

// maxFresh is the backpressure bound: while a destination answers, an
// enqueue waits once this many entries are queued for it.
const maxFresh = 4096

// ErrUndeliverable marks a Send error as final: the entry can never
// be delivered (the transport refuses to carry it), so the queue drops
// it instead of retrying it, and the anti-entropy loop repairs the gap.
var ErrUndeliverable = errors.New("repair: leg cannot be delivered")

// LegQueueOptions configures a LegQueue. Nil counters no-op.
type LegQueueOptions struct {
	// Cap bounds a failing destination's queue: at most Cap entries
	// stay queued and newer ones are dropped — the anti-entropy loop is
	// the backstop for what overflows. The head entry is the failing
	// destination's probe, so Cap below 1 counts as 1.
	Cap int
	// Base and Max bound the retry backoff, which doubles from Base per
	// failed send and resets on success.
	Base, Max time.Duration
	// Send delivers one entry. An error keeps it at the head of its
	// queue for the next attempt, unless it wraps ErrUndeliverable,
	// which drops it.
	Send func(addr string, env *wire.Request) error
	// Queued counts entries handed off — their first send failed, or
	// they were queued behind a failing head; Replayed those later
	// delivered; Dropped those refused, cut by Cap or undeliverable.
	Queued, Replayed, Dropped *metrics.Counter
	// Failing tracks how many destinations are failing (Failing).
	Failing *metrics.Gauge
}

// LegQueue carries every replica leg that does not travel inside a
// synchronous round trip: one FIFO per destination, sent in enqueue
// order by a drainer goroutine that runs only while the FIFO is
// non-empty. Entries are envelopes built by wire.NewBatchRequest; the
// queue owns each from enqueue until it is delivered, dropped, or
// discarded by Close, and then releases it.
//
// While a destination answers, fresh legs queue with backpressure at
// maxFresh. A failed send — or a leg whose synchronous send already
// failed (HandOff) — turns its FIFO into a hinted-handoff backlog,
// bounded by Cap and retried with backoff until it has been replayed,
// and makes the destination failing until its next successful send:
// the queue holds the instance's one verdict on a down replica.
type LegQueue struct {
	opts LegQueueOptions
	// failing mirrors how many destinations are failing, so Failing
	// returns after one atomic load while none is. Written under mu.
	failing atomic.Int64

	mu sync.Mutex
	// cond wakes backpressured enqueuers and Drain; it is broadcast
	// whenever an entry leaves a queue or a queue fails.
	cond  sync.Cond
	peers map[string]*peerQueue
	// unsettled counts entries queued to answering destinations.
	unsettled int
	closed    bool
	done      chan struct{}
	wg        sync.WaitGroup
}

// peerQueue is one destination's FIFO: entries[head:], oldest first.
type peerQueue struct {
	addr    string
	entries []*wire.Request
	head    int
	backlog bool // every entry is handed off: a send failed since the FIFO was last empty
	failing bool // a send failed since the last successful one
	active  bool // a drainer owns the FIFO
	drain   func()
}

// NewLegQueue builds a leg queue.
func NewLegQueue(opts LegQueueOptions) *LegQueue {
	if opts.Base <= 0 {
		opts.Base = 10 * time.Millisecond
	}
	opts.Max = max(opts.Max, opts.Base)
	opts.Cap = max(opts.Cap, 1)
	lq := &LegQueue{opts: opts, peers: make(map[string]*peerQueue), done: make(chan struct{})}
	lq.cond.L = &lq.mu
	return lq
}

// Enqueue queues a fresh leg envelope for addr.
func (lq *LegQueue) Enqueue(addr string, env *wire.Request) { lq.add(addr, env, false) }

// HandOff queues a leg envelope whose synchronous send to addr failed,
// or was skipped because addr is failing.
func (lq *LegQueue) HandOff(addr string, env *wire.Request) { lq.add(addr, env, true) }

// Failing reports whether addr is failing: a send to it failed, or a
// leg bound for it was handed off, since its last successful send.
// While no destination is failing it costs one atomic load.
func (lq *LegQueue) Failing(addr string) bool {
	if lq.failing.Load() == 0 {
		return false
	}
	lq.mu.Lock()
	defer lq.mu.Unlock()
	pq := lq.peers[addr]
	return pq != nil && pq.failing
}

// add queues env, or releases it when the queue is closed or addr's
// backlog is full. A queued leg outlives the client operation that
// spawned it, so its deadline budget is cleared.
func (lq *LegQueue) add(addr string, env *wire.Request, failed bool) {
	env.Budget = 0
	lq.mu.Lock()
	pq := lq.peers[addr]
	if pq == nil {
		pq = &peerQueue{addr: addr}
		pq.drain = func() { lq.run(pq) } // built once: starting a drainer allocates nothing
		lq.peers[addr] = pq
	}
	if failed {
		lq.handOff(pq)
	}
	for !lq.closed && !pq.backlog && pq.len() >= maxFresh {
		lq.cond.Wait()
	}
	if lq.closed || (pq.backlog && pq.len() >= lq.opts.Cap) {
		if !lq.closed {
			lq.opts.Dropped.Inc()
		}
		lq.mu.Unlock()
		wire.ReleaseBatchRequest(env)
		return
	}
	pq.entries = append(pq.compact(), env)
	if pq.backlog {
		lq.opts.Queued.Inc()
	} else {
		lq.unsettled++
	}
	if !pq.active {
		pq.active = true
		lq.wg.Add(1)
		go pq.drain()
	}
	lq.mu.Unlock()
}

// handOff makes pq a failing backlog: it cuts the FIFO to Cap entries,
// newest first, so the head — the entry being sent, if any — stays as
// the probe, and counts the rest as handed off. Called with mu held.
func (lq *LegQueue) handOff(pq *peerQueue) {
	lq.setFailing(pq, true)
	for pq.len() > lq.opts.Cap {
		last := len(pq.entries) - 1
		wire.ReleaseBatchRequest(pq.entries[last])
		pq.entries = pq.entries[:last]
		if !pq.backlog {
			lq.unsettled--
		}
		lq.opts.Dropped.Inc()
	}
	if !pq.backlog {
		pq.backlog = true
		lq.unsettled -= pq.len()
		lq.opts.Queued.Add(int64(pq.len()))
	}
	lq.cond.Broadcast()
}

// setFailing records whether pq's destination is failing. Called with
// mu held.
func (lq *LegQueue) setFailing(pq *peerQueue, on bool) {
	if pq.failing == on {
		return
	}
	pq.failing = on
	d := int64(-1)
	if on {
		d = 1
	}
	lq.failing.Add(d)
	lq.opts.Failing.Add(d)
}

// run drains pq until it is empty or the queue closes.
func (lq *LegQueue) run(pq *peerQueue) {
	defer lq.wg.Done()
	backoff := lq.opts.Base
	lq.mu.Lock()
	for !lq.closed && pq.len() > 0 {
		env := pq.entries[pq.head]
		lq.mu.Unlock()
		err := lq.opts.Send(pq.addr, env)
		lq.mu.Lock()
		if err != nil && !errors.Is(err, ErrUndeliverable) {
			lq.handOff(pq)
			lq.mu.Unlock()
			select {
			case <-lq.done:
			case <-time.After(backoff):
			}
			backoff = min(2*backoff, lq.opts.Max)
			lq.mu.Lock()
			continue
		}
		pq.entries[pq.head] = nil
		pq.head++
		if !pq.backlog {
			lq.unsettled--
		}
		if err != nil {
			lq.opts.Dropped.Inc()
		} else {
			if pq.backlog {
				lq.opts.Replayed.Inc()
			}
			lq.setFailing(pq, false)
			backoff = lq.opts.Base
		}
		wire.ReleaseBatchRequest(env)
		lq.cond.Broadcast()
	}
	pq.active = false
	if pq.len() == 0 {
		// An empty FIFO is no backlog. It is still failing only when
		// undeliverable drops emptied it before any send succeeded; with
		// no probe left, the destination is not known to be down.
		pq.backlog = false
		lq.setFailing(pq, false)
	}
	lq.mu.Unlock()
}

// Drain returns once every entry queued to an answering destination
// has been sent once: delivered, or handed off by a failed send.
// Backlogs are not waited for, so a down peer cannot hang Drain.
func (lq *LegQueue) Drain() {
	lq.mu.Lock()
	for lq.unsettled > 0 && !lq.closed {
		lq.cond.Wait()
	}
	lq.mu.Unlock()
}

// Close stops the drainers, waiting for sends in flight, and releases
// every queued entry; later enqueues release their entry and return.
func (lq *LegQueue) Close() {
	lq.mu.Lock()
	if !lq.closed {
		lq.closed = true
		close(lq.done)
		lq.cond.Broadcast()
	}
	lq.mu.Unlock()
	lq.wg.Wait()
	lq.mu.Lock()
	defer lq.mu.Unlock()
	for _, pq := range lq.peers {
		for _, env := range pq.entries[pq.head:] {
			wire.ReleaseBatchRequest(env)
		}
		pq.entries, pq.head = nil, 0
	}
}

func (pq *peerQueue) len() int { return len(pq.entries) - pq.head }

// compact returns entries slid to the front of their array once the
// array is full, so a FIFO reuses one array whether or not it empties.
func (pq *peerQueue) compact() []*wire.Request {
	if pq.head > 0 && (pq.len() == 0 || len(pq.entries) == cap(pq.entries)) {
		n := copy(pq.entries, pq.entries[pq.head:])
		clear(pq.entries[n:])
		pq.entries, pq.head = pq.entries[:n], 0
	}
	return pq.entries
}
