package repair

import (
	"sync"
	"time"

	"zht/internal/metrics"
	"zht/internal/wire"
)

// maxFresh is the backpressure bound: while a destination answers, an
// enqueue waits once this many entries are queued for it.
const maxFresh = 4096

// LegQueueOptions configures a LegQueue. Nil counters no-op.
type LegQueueOptions struct {
	// Cap bounds a failing destination's queue: at most Cap entries
	// stay queued and newer ones are dropped — the anti-entropy loop is
	// the backstop for what overflows. Cap <= 0 drops every failed entry.
	Cap int
	// Base and Max bound the retry backoff, which doubles from Base per
	// failed send and resets on success.
	Base, Max time.Duration
	// Send delivers one entry; an error keeps it at the head of its
	// queue for the next attempt.
	Send func(addr string, env *wire.Request) error
	// Queued counts entries handed off — their first send failed, or
	// they were queued behind a failing head; Replayed those later
	// delivered; Dropped those refused or cut by Cap.
	Queued, Replayed, Dropped *metrics.Counter
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
// bounded by Cap and retried with backoff until it has been replayed.
type LegQueue struct {
	opts LegQueueOptions

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
	active  bool // a drainer owns the FIFO
	sending bool // the drainer is sending entries[head]
	drain   func()
}

// NewLegQueue builds a leg queue.
func NewLegQueue(opts LegQueueOptions) *LegQueue {
	if opts.Base <= 0 {
		opts.Base = 10 * time.Millisecond
	}
	opts.Max = max(opts.Max, opts.Base)
	lq := &LegQueue{opts: opts, peers: make(map[string]*peerQueue), done: make(chan struct{})}
	lq.cond.L = &lq.mu
	return lq
}

// Enqueue queues a fresh leg envelope for addr.
func (lq *LegQueue) Enqueue(addr string, env *wire.Request) { lq.add(addr, env, false) }

// HandOff queues a leg envelope whose synchronous send to addr failed.
func (lq *LegQueue) HandOff(addr string, env *wire.Request) { lq.add(addr, env, true) }

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
		if !pq.active {
			pq.backlog = false // Cap <= 0 keeps nothing to replay
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

// handOff makes pq a backlog: it cuts the FIFO to Cap entries, newest
// first (an entry being sent stays until its send returns), and counts
// the rest as handed off. Called with mu held.
func (lq *LegQueue) handOff(pq *peerQueue) {
	keep := max(lq.opts.Cap, 0)
	if pq.sending {
		keep = max(keep, 1)
	}
	for pq.len() > keep {
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

// run drains pq until it is empty or the queue closes.
func (lq *LegQueue) run(pq *peerQueue) {
	defer lq.wg.Done()
	backoff := lq.opts.Base
	lq.mu.Lock()
	for !lq.closed && pq.len() > 0 {
		env := pq.entries[pq.head]
		pq.sending = true
		lq.mu.Unlock()
		err := lq.opts.Send(pq.addr, env)
		lq.mu.Lock()
		pq.sending = false
		if err != nil {
			lq.handOff(pq)
			if pq.len() == 0 {
				break
			}
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
		if pq.backlog {
			lq.opts.Replayed.Inc()
		} else {
			lq.unsettled--
		}
		wire.ReleaseBatchRequest(env)
		lq.cond.Broadcast()
		backoff = lq.opts.Base
	}
	pq.active = false
	pq.backlog = pq.backlog && pq.len() > 0
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
