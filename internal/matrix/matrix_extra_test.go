package matrix

import (
	"testing"
	"time"

	"zht/internal/transport"
	"zht/internal/wire"
)

func TestSimulatedTimeMode(t *testing.T) {
	// SimulatedTime executes "long" tasks instantly while still
	// accounting their durations.
	c, _ := newMatrixCluster(t, 2, NodeOptions{Workers: 1, SimulatedTime: true}, false)
	tasks := MakeSleepTasks(100, time.Second) // 100 s of virtual work
	start := time.Now()
	if err := c.Submit(tasks, "balanced"); err != nil {
		t.Fatal(err)
	}
	if !c.WaitForCount(100, 10*time.Second) {
		t.Fatalf("only %d/100 done", c.TotalExecuted())
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("simulated time took %v of wall clock", el)
	}
	var busy time.Duration
	for _, nd := range c.Nodes {
		busy += nd.BusyTime()
	}
	if busy != 100*time.Second {
		t.Errorf("accounted busy time = %v, want 100s", busy)
	}
}

func TestStealFromDownedVictim(t *testing.T) {
	reg := transport.NewRegistry()
	c, err := NewCluster(2, NodeOptions{Workers: 1, PollMax: time.Millisecond}, nil,
		func(addr string, h transport.Handler) (transport.Listener, error) { return reg.Listen(addr, h) },
		reg.NewClient())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	// Kill node 1 outright (stop its executors AND make it
	// unreachable); node 0 still completes its local work while its
	// steal probes fail harmlessly.
	c.Nodes[1].Stop()
	reg.SetDown("matrix-0001", true)
	c.Nodes[0].Enqueue(MakeSleepTasks(50, 0)...)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && c.Nodes[0].Executed() < 50 {
		time.Sleep(time.Millisecond)
	}
	if got := c.Nodes[0].Executed(); got != 50 {
		t.Errorf("executed %d/50 with a dead peer", got)
	}
}

func TestLoadProbe(t *testing.T) {
	c, _ := newMatrixCluster(t, 1, NodeOptions{Workers: 1}, false)
	c.Stop() // freeze executors so the queue stays put
	c.Nodes[0].Enqueue(MakeSleepTasks(7, time.Hour)...)
	resp := c.Nodes[0].Handle(&wire.Request{Op: wire.OpLookup, Key: keyLoad})
	if resp.Status != wire.StatusOK {
		t.Fatalf("load probe: %v", resp.Status)
	}
	got := int(resp.Value[0]) | int(resp.Value[1])<<8 | int(resp.Value[2])<<16 | int(resp.Value[3])<<24
	if got != 7 {
		t.Errorf("load = %d, want 7", got)
	}
}

func TestSubmitMalformedBatch(t *testing.T) {
	c, _ := newMatrixCluster(t, 1, NodeOptions{}, false)
	resp := c.Nodes[0].Handle(&wire.Request{Op: wire.OpInsert, Key: keySubmit, Value: []byte("garbage")})
	if resp.Status != wire.StatusError {
		t.Errorf("malformed batch accepted: %v", resp.Status)
	}
}

func TestStealFromEmptyVictim(t *testing.T) {
	c, _ := newMatrixCluster(t, 1, NodeOptions{}, false)
	resp := c.Nodes[0].Handle(&wire.Request{Op: wire.OpLookup, Key: keySteal})
	if resp.Status != wire.StatusNotFound {
		t.Errorf("steal from empty queue = %v, want not-found", resp.Status)
	}
}

func TestTaskStatusWithoutZHT(t *testing.T) {
	c, _ := newMatrixCluster(t, 1, NodeOptions{}, false)
	if _, err := c.TaskStatus("x"); err == nil {
		t.Error("TaskStatus without ZHT succeeded")
	}
}

func TestWaitForCountTimeout(t *testing.T) {
	c, _ := newMatrixCluster(t, 1, NodeOptions{Workers: 1}, false)
	if c.WaitForCount(10, 20*time.Millisecond) {
		t.Error("WaitForCount reported success with no tasks")
	}
}

func TestPopBatchFraction(t *testing.T) {
	n := NewNode("a", []string{"a"}, nil, nil, NodeOptions{StealBatchFraction: 0.5})
	n.Enqueue(MakeSleepTasks(10, 0)...)
	batch := n.popBatch()
	if len(batch) != 5 {
		t.Errorf("stole %d of 10, want half", len(batch))
	}
	if n.QueueLen() != 5 {
		t.Errorf("victim retains %d", n.QueueLen())
	}
	// Single remaining task is not stealable down to zero... but a
	// queue of 1 yields nothing (fraction rounds to 0 and len==1).
	n2 := NewNode("b", []string{"b"}, nil, nil, NodeOptions{StealBatchFraction: 0.5})
	n2.Enqueue(MakeSleepTasks(1, 0)...)
	if got := n2.popBatch(); got != nil {
		t.Errorf("stole %d from a single-task queue", len(got))
	}
	// Two tasks: the rounding floor still takes one.
	n3 := NewNode("c", []string{"c"}, nil, nil, NodeOptions{StealBatchFraction: 0.4})
	n3.Enqueue(MakeSleepTasks(2, 0)...)
	if got := n3.popBatch(); len(got) != 1 {
		t.Errorf("stole %d of 2, want 1", len(got))
	}
}

// arrivingCaller runs arrive once, just before the first call it
// forwards: work landing on the caller's node while a steal is in
// flight.
type arrivingCaller struct {
	*transport.InprocClient
	arrive func()
}

func (c *arrivingCaller) Call(addr string, req *wire.Request) (*wire.Response, error) {
	if c.arrive != nil {
		c.arrive()
		c.arrive = nil
	}
	return c.InprocClient.Call(addr, req)
}

// TestSurplusStealHandedBack steals half of a victim's queue twice.
// Into an idle thief the batch stays; into a thief whose own share
// landed while the steal was in flight it goes back to the victim, so
// a submission that races a steal still leaves every node its share.
func TestSurplusStealHandedBack(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		arrives               bool
		wantThief, wantVictim int
	}{
		{"idle thief keeps the batch", false, 4, 4},
		{"busy thief hands it back", true, 1, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := transport.NewRegistry()
			victim := NewNode("victim", nil, nil, nil, NodeOptions{})
			victim.Enqueue(MakeSleepTasks(8, 0)...)
			if _, err := reg.Listen("victim", victim.Handle); err != nil {
				t.Fatal(err)
			}
			var thief *Node
			caller := &arrivingCaller{InprocClient: reg.NewClient()}
			if tc.arrives {
				caller.arrive = func() { thief.Enqueue(&Task{ID: "own"}) }
			}
			thief = NewNode("thief", []string{"thief", "victim"}, nil, caller, NodeOptions{})
			// A probe that picks the thief itself fails without a call.
			stole := false
			for i := 0; i < 100 && !stole; i++ {
				stole = thief.trySteal()
			}
			if !stole {
				t.Fatal("no steal from a victim with 8 queued tasks in 100 probes")
			}
			if got := thief.QueueLen(); got != tc.wantThief {
				t.Errorf("thief queues %d tasks, want %d", got, tc.wantThief)
			}
			if got := victim.QueueLen(); got != tc.wantVictim {
				t.Errorf("victim queues %d tasks, want %d", got, tc.wantVictim)
			}
		})
	}
}
