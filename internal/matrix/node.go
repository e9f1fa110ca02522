package matrix

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"zht/internal/core"
	"zht/internal/transport"
	"zht/internal/wire"
)

// Steal protocol keys: node-to-node requests travel over the same
// transport layer as ZHT but to the scheduler's own addresses, using
// OpLookup with these reserved keys.
const (
	keySteal  = "matrix/steal"  // response: half the victim's queue
	keySubmit = "matrix/submit" // request Value: task list to enqueue
	keyLoad   = "matrix/load"   // response: queue length (monitoring)
)

// NodeOptions configures one MATRIX scheduler node.
type NodeOptions struct {
	// Workers is the number of executor goroutines (cores).
	Workers int
	// StealBatchFraction is how much of a victim's queue a thief
	// takes (the adaptive work stealing algorithm steals half).
	StealBatchFraction float64
	// PollMin/PollMax bound the adaptive steal backoff.
	PollMin, PollMax time.Duration
	// SimulatedTime makes executors account task durations without
	// sleeping (virtual execution for large benchmarks). Wall-clock
	// efficiency measurements should keep it false.
	SimulatedTime bool
}

func (o *NodeOptions) fill() {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.StealBatchFraction <= 0 || o.StealBatchFraction > 1 {
		o.StealBatchFraction = 0.5
	}
	if o.PollMin <= 0 {
		o.PollMin = 100 * time.Microsecond
	}
	if o.PollMax <= 0 {
		o.PollMax = 50 * time.Millisecond
	}
}

// Node is one MATRIX scheduler/executor.
type Node struct {
	addr   string
	peers  []string // all node addresses (self included)
	opts   NodeOptions
	zht    *core.Client
	caller transport.Caller

	mu    sync.Mutex
	queue []*Task

	executed  atomic.Int64
	stolen    atomic.Int64
	busyNanos atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
	rng  *rand.Rand
	rmu  sync.Mutex
}

// NewNode creates a scheduler node. zht may be nil when status
// tracking is not needed (micro-benchmarks).
func NewNode(addr string, peers []string, zht *core.Client, caller transport.Caller, opts NodeOptions) *Node {
	opts.fill()
	return &Node{
		addr: addr, peers: peers, opts: opts, zht: zht, caller: caller,
		stop: make(chan struct{}),
		rng:  rand.New(rand.NewSource(int64(len(addr)) + time.Now().UnixNano())),
	}
}

// Handle implements transport.Handler for the steal protocol.
func (n *Node) Handle(req *wire.Request) *wire.Response {
	switch {
	case req.Op == wire.OpLookup && req.Key == keySteal:
		batch := n.popBatch()
		if len(batch) == 0 {
			return &wire.Response{Status: wire.StatusNotFound}
		}
		n.stolen.Add(int64(len(batch)))
		return &wire.Response{Status: wire.StatusOK, Value: encodeTaskList(batch)}
	case req.Op == wire.OpInsert && req.Key == keySubmit:
		ts, err := decodeTaskList(req.Value)
		if err != nil {
			return &wire.Response{Status: wire.StatusError, Err: err.Error()}
		}
		n.Enqueue(ts...)
		return &wire.Response{Status: wire.StatusOK}
	case req.Op == wire.OpLookup && req.Key == keyLoad:
		n.mu.Lock()
		l := len(n.queue)
		n.mu.Unlock()
		return &wire.Response{Status: wire.StatusOK, Value: []byte{byte(l), byte(l >> 8), byte(l >> 16), byte(l >> 24)}}
	case req.Op == wire.OpPing:
		return &wire.Response{Status: wire.StatusOK}
	}
	return &wire.Response{Status: wire.StatusError, Err: "matrix: unsupported request"}
}

// Enqueue adds tasks to the local queue.
func (n *Node) Enqueue(ts ...*Task) {
	n.mu.Lock()
	n.queue = append(n.queue, ts...)
	n.mu.Unlock()
}

// popOne takes one task from the back (LIFO locally: better cache
// behaviour; thieves take from the front).
func (n *Node) popOne() *Task {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.queue) == 0 {
		return nil
	}
	t := n.queue[len(n.queue)-1]
	n.queue = n.queue[:len(n.queue)-1]
	return t
}

// popBatch removes the configured fraction of the queue front for a
// thief.
func (n *Node) popBatch() []*Task {
	n.mu.Lock()
	defer n.mu.Unlock()
	take := int(float64(len(n.queue)) * n.opts.StealBatchFraction)
	if take == 0 && len(n.queue) > 1 {
		take = 1
	}
	if take == 0 {
		return nil
	}
	batch := append([]*Task(nil), n.queue[:take]...)
	n.queue = append(n.queue[:0], n.queue[take:]...)
	return batch
}

// QueueLen reports the local queue length.
func (n *Node) QueueLen() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.queue)
}

// Executed reports tasks completed by this node.
func (n *Node) Executed() int64 { return n.executed.Load() }

// Stolen reports tasks taken from this node by thieves.
func (n *Node) Stolen() int64 { return n.stolen.Load() }

// BusyTime reports cumulative task execution time.
func (n *Node) BusyTime() time.Duration { return time.Duration(n.busyNanos.Load()) }

// Start launches the executor workers.
func (n *Node) Start() {
	for w := 0; w < n.opts.Workers; w++ {
		n.wg.Add(1)
		go n.worker()
	}
}

// Stop halts the executors after their current task.
func (n *Node) Stop() {
	select {
	case <-n.stop:
	default:
		close(n.stop)
	}
	n.wg.Wait()
}

func (n *Node) worker() {
	defer n.wg.Done()
	backoff := n.opts.PollMin
	for {
		select {
		case <-n.stop:
			return
		default:
		}
		t := n.popOne()
		if t == nil {
			if n.trySteal() {
				backoff = n.opts.PollMin // adaptive: reset on success
				continue
			}
			// Adaptive backoff: double the probe interval while the
			// neighbourhood is dry.
			select {
			case <-n.stop:
				return
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > n.opts.PollMax {
				backoff = n.opts.PollMax
			}
			continue
		}
		n.execute(t)
	}
}

func (n *Node) execute(t *Task) {
	if t.Duration > 0 {
		if n.opts.SimulatedTime {
			// Account without sleeping.
		} else {
			time.Sleep(t.Duration)
		}
	}
	n.busyNanos.Add(int64(t.Duration))
	n.executed.Add(1)
	if n.zht != nil {
		n.zht.Insert(statusKey(t.ID), statusValue(StatusDone, n.addr))
	}
}

// trySteal probes one random peer and absorbs its batch.
func (n *Node) trySteal() bool {
	if len(n.peers) <= 1 {
		return false
	}
	n.rmu.Lock()
	victim := n.peers[n.rng.Intn(len(n.peers))]
	n.rmu.Unlock()
	if victim == n.addr {
		return false
	}
	resp, err := n.caller.Call(victim, &wire.Request{Op: wire.OpLookup, Key: keySteal})
	if err != nil || resp.Status != wire.StatusOK {
		return false
	}
	ts, err := decodeTaskList(resp.Value)
	if err != nil || len(ts) == 0 {
		return false
	}
	// Work that reached this node while the steal was in flight (a
	// submission, or the other worker's steal) makes the batch surplus
	// here: hand it back rather than leave the victim short.
	if n.QueueLen() > 0 {
		back, err := n.caller.Call(victim, &wire.Request{Op: wire.OpInsert, Key: keySubmit, Value: resp.Value})
		if err == nil && back.Status == wire.StatusOK {
			return true
		}
	}
	n.Enqueue(ts...)
	return true
}
