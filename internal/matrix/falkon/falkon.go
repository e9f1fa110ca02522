// Package falkon implements the Falkon baseline MATRIX is compared
// against (paper §V.C, Figures 18 and 19): a centralized light-weight
// task execution framework.
//
// "Falkon has a centralized architecture, and hence had limited
// scalability" — it "saturates at 1700 tasks/sec at 256-core scales".
// This implementation is faithful to that structure: a single
// dispatcher holds the task queue, every executor round-trips to it
// for each task, and the dispatcher spends a fixed service time per
// dispatch (request parsing, state update, response) under one lock —
// exactly the serialization that caps a centralized design.
package falkon

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"zht/internal/matrix"
	"zht/internal/transport"
	"zht/internal/wire"
)

// DefaultServiceTime calibrates the dispatcher cap near the paper's
// measured 1700 tasks/sec.
const DefaultServiceTime = 550 * time.Microsecond

// Dispatcher is the centralized Falkon service.
type Dispatcher struct {
	mu          sync.Mutex
	queue       []*matrix.Task
	serviceTime time.Duration
	dispatched  atomic.Int64
}

// NewDispatcher creates a dispatcher; serviceTime <= 0 selects the
// default calibration.
func NewDispatcher(serviceTime time.Duration) *Dispatcher {
	if serviceTime <= 0 {
		serviceTime = DefaultServiceTime
	}
	return &Dispatcher{serviceTime: serviceTime}
}

// Submit enqueues tasks centrally.
func (d *Dispatcher) Submit(tasks []*matrix.Task) {
	d.mu.Lock()
	d.queue = append(d.queue, tasks...)
	d.mu.Unlock()
}

// Dispatched reports tasks handed to executors.
func (d *Dispatcher) Dispatched() int64 { return d.dispatched.Load() }

// QueueLen reports tasks still waiting.
func (d *Dispatcher) QueueLen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.queue)
}

// Handle implements transport.Handler. OpRemove with key "next" pops
// one task; the per-dispatch service time is spent holding the lock,
// which is the centralized bottleneck.
func (d *Dispatcher) Handle(req *wire.Request) *wire.Response {
	switch {
	case req.Op == wire.OpRemove && req.Key == "next":
		req.Detach() // queues behind every other dispatch, then sleeps
		d.mu.Lock()
		if d.serviceTime > 0 {
			time.Sleep(d.serviceTime)
		}
		if len(d.queue) == 0 {
			d.mu.Unlock()
			return wire.Reply(wire.StatusNotFound, nil)
		}
		t := d.queue[0]
		d.queue = d.queue[1:]
		d.mu.Unlock()
		d.dispatched.Add(1)
		return wire.Reply(wire.StatusOK, encodeOne(t))
	case req.Op == wire.OpPing:
		return wire.Reply(wire.StatusOK, nil)
	}
	return wire.ErrorReply("falkon: unsupported request")
}

func encodeOne(t *matrix.Task) []byte { return matrix.EncodeTaskForWire(t) }

// Executor pulls tasks from the dispatcher and runs them.
type Executor struct {
	dispatcher string
	caller     transport.Caller
	executed   atomic.Int64
	simulated  bool
	stop       chan struct{}
	wg         sync.WaitGroup
}

// NewExecutor creates an executor bound to the dispatcher address.
func NewExecutor(dispatcherAddr string, caller transport.Caller, simulatedTime bool) *Executor {
	return &Executor{
		dispatcher: dispatcherAddr, caller: caller,
		simulated: simulatedTime, stop: make(chan struct{}),
	}
}

// Start launches the executor loop.
func (e *Executor) Start() {
	e.wg.Add(1)
	go e.loop()
}

// Stop halts the executor.
func (e *Executor) Stop() {
	select {
	case <-e.stop:
	default:
		close(e.stop)
	}
	e.wg.Wait()
}

// Executed reports completed tasks.
func (e *Executor) Executed() int64 { return e.executed.Load() }

func (e *Executor) loop() {
	defer e.wg.Done()
	idle := time.Millisecond
	for {
		select {
		case <-e.stop:
			return
		default:
		}
		resp, err := e.caller.Call(e.dispatcher, &wire.Request{Op: wire.OpRemove, Key: "next"})
		if err != nil {
			return // dispatcher gone
		}
		if resp.Status == wire.StatusNotFound {
			select {
			case <-e.stop:
				return
			case <-time.After(idle):
			}
			continue
		}
		t, err := matrix.DecodeTaskFromWire(resp.Value)
		if err != nil {
			continue
		}
		if t.Duration > 0 && !e.simulated {
			time.Sleep(t.Duration)
		}
		e.executed.Add(1)
	}
}

// Cluster is a dispatcher plus executors.
type Cluster struct {
	Dispatcher *Dispatcher
	Executors  []*Executor
	workers    int
}

// NewCluster starts a Falkon deployment with the given executor
// count.
func NewCluster(executors int, serviceTime time.Duration,
	listen func(addr string, h transport.Handler) (transport.Listener, error),
	caller transport.Caller) (*Cluster, error) {
	if executors <= 0 {
		return nil, errors.New("falkon: need at least one executor")
	}
	d := NewDispatcher(serviceTime)
	if _, err := listen("falkon-dispatcher", d.Handle); err != nil {
		return nil, err
	}
	c := &Cluster{Dispatcher: d, workers: executors}
	for i := 0; i < executors; i++ {
		e := NewExecutor("falkon-dispatcher", caller, false)
		e.Start()
		c.Executors = append(c.Executors, e)
	}
	return c, nil
}

// TotalExecuted sums completed tasks.
func (c *Cluster) TotalExecuted() int64 {
	var n int64
	for _, e := range c.Executors {
		n += e.Executed()
	}
	return n
}

// Stop halts all executors.
func (c *Cluster) Stop() {
	for _, e := range c.Executors {
		e.Stop()
	}
}

// RunWorkload mirrors matrix.Cluster.RunWorkload for the baseline.
func (c *Cluster) RunWorkload(tasks []*matrix.Task, timeout time.Duration) (makespan time.Duration, efficiency float64, err error) {
	start := time.Now()
	c.Dispatcher.Submit(tasks)
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) && c.TotalExecuted() < int64(len(tasks)) {
		time.Sleep(500 * time.Microsecond)
	}
	if c.TotalExecuted() < int64(len(tasks)) {
		return 0, 0, fmt.Errorf("falkon: workload timed out: %d/%d", c.TotalExecuted(), len(tasks))
	}
	makespan = time.Since(start)
	var total time.Duration
	for _, t := range tasks {
		total += t.Duration
	}
	ideal := total / time.Duration(c.workers)
	if makespan > 0 {
		efficiency = float64(ideal) / float64(makespan)
	}
	return makespan, efficiency, nil
}
