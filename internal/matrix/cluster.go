package matrix

import (
	"errors"
	"fmt"
	"time"

	"zht/internal/core"
	"zht/internal/transport"
	"zht/internal/wire"
)

// Cluster wires a set of MATRIX nodes over a transport, with an
// optional ZHT deployment tracking task state.
type Cluster struct {
	Nodes  []*Node
	caller transport.Caller
	zht    *core.Client
}

// NewCluster starts n nodes. zht may be nil to skip status tracking.
func NewCluster(n int, opts NodeOptions, zht *core.Client,
	listen func(addr string, h transport.Handler) (transport.Listener, error),
	caller transport.Caller) (*Cluster, error) {
	if n <= 0 {
		return nil, errors.New("matrix: need at least one node")
	}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("matrix-%04d", i)
	}
	c := &Cluster{caller: caller, zht: zht}
	for i := 0; i < n; i++ {
		nd := NewNode(addrs[i], addrs, zht, caller, opts)
		if _, err := listen(addrs[i], nd.Handle); err != nil {
			return nil, err
		}
		c.Nodes = append(c.Nodes, nd)
	}
	for _, nd := range c.Nodes {
		nd.Start()
	}
	return c, nil
}

// Submit registers tasks in ZHT (status=queued) and enqueues them.
// mode "balanced" spreads tasks round-robin over all nodes; "single"
// sends everything to node 0 (the worst case that work stealing must
// fix — the paper's client "could submit tasks to arbitrary node, or
// to all the nodes in a balanced distribution").
func (c *Cluster) Submit(tasks []*Task, mode string) error {
	if c.zht != nil {
		for _, t := range tasks {
			if err := c.zht.Insert(statusKey(t.ID), statusValue(StatusQueued, "")); err != nil {
				return err
			}
		}
	}
	switch mode {
	case "balanced":
		// Every share lands at once. Filled one node after another, a
		// worker whose share had not arrived yet would find its queue
		// empty and steal half of a filled node's queue, and the run
		// would end a task round late.
		for _, nd := range c.Nodes {
			nd.mu.Lock()
		}
		per := (len(tasks) + len(c.Nodes) - 1) / len(c.Nodes)
		for i, nd := range c.Nodes {
			lo := i * per
			if lo >= len(tasks) {
				break
			}
			hi := lo + per
			if hi > len(tasks) {
				hi = len(tasks)
			}
			nd.queue = append(nd.queue, tasks[lo:hi]...)
		}
		for _, nd := range c.Nodes {
			nd.mu.Unlock()
		}
	case "single":
		c.Nodes[0].Enqueue(tasks...)
	default:
		return fmt.Errorf("matrix: unknown submit mode %q", mode)
	}
	return nil
}

// SubmitRemote sends a task batch to a node by address through the
// wire protocol (what an external client does).
func (c *Cluster) SubmitRemote(addr string, tasks []*Task) error {
	resp, err := c.caller.Call(addr, &wire.Request{
		Op: wire.OpInsert, Key: keySubmit, Value: encodeTaskList(tasks),
	})
	if err != nil {
		return err
	}
	if resp.Status != wire.StatusOK {
		return fmt.Errorf("matrix: submit: %s", resp.Err)
	}
	return nil
}

// TotalExecuted sums completed tasks across nodes.
func (c *Cluster) TotalExecuted() int64 {
	var n int64
	for _, nd := range c.Nodes {
		n += nd.Executed()
	}
	return n
}

// WaitForCount blocks until total executed tasks reaches want or the
// timeout passes; it reports whether the target was reached.
func (c *Cluster) WaitForCount(want int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.TotalExecuted() >= want {
			return true
		}
		time.Sleep(200 * time.Microsecond)
	}
	return c.TotalExecuted() >= want
}

// TaskStatus reads a task's ZHT status record.
func (c *Cluster) TaskStatus(id string) (string, error) {
	if c.zht == nil {
		return "", errors.New("matrix: cluster has no ZHT client")
	}
	v, err := c.zht.Lookup(statusKey(id))
	if err != nil {
		return "", err
	}
	return string(v), nil
}

// Stop halts every node.
func (c *Cluster) Stop() {
	for _, nd := range c.Nodes {
		nd.Stop()
	}
}

// RunWorkload drives a complete workload to completion and reports
// the makespan and efficiency: efficiency = (total task compute time
// / workers) / makespan — the metric of Figure 19.
func (c *Cluster) RunWorkload(tasks []*Task, mode string, timeout time.Duration) (makespan time.Duration, efficiency float64, err error) {
	start := time.Now()
	if err := c.Submit(tasks, mode); err != nil {
		return 0, 0, err
	}
	if !c.WaitForCount(int64(len(tasks)), timeout) {
		return 0, 0, fmt.Errorf("matrix: workload timed out: %d/%d done", c.TotalExecuted(), len(tasks))
	}
	makespan = time.Since(start)
	var totalWork time.Duration
	for _, t := range tasks {
		totalWork += t.Duration
	}
	workers := 0
	for _, nd := range c.Nodes {
		workers += nd.opts.Workers
	}
	ideal := totalWork / time.Duration(workers)
	if makespan > 0 {
		efficiency = float64(ideal) / float64(makespan)
	}
	return makespan, efficiency, nil
}

// MakeSleepTasks builds the paper's synthetic workload: count tasks
// of the given duration.
func MakeSleepTasks(count int, d time.Duration) []*Task {
	ts := make([]*Task, count)
	for i := range ts {
		ts[i] = &Task{ID: fmt.Sprintf("task-%07d", i), Duration: d}
	}
	return ts
}
