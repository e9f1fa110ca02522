package core

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"zht/internal/ring"
	"zht/internal/transport"
	"zht/internal/wire"
)

// Tests for the client's fan-outs — QUORUM reads and batch envelopes —
// which start every call before awaiting any, over TCP and in process.

// tcpDeployment boots n instances on loopback TCP, each handler
// delayed by delay while slow is set, and returns the deployment, its
// listeners in instance order, and a client over a TCP caller of its
// own.
func tcpDeployment(t *testing.T, cfg Config, n int, delay time.Duration, slow *atomic.Bool) (*Deployment, []*transport.TCPServer, *Client) {
	t.Helper()
	legs := transport.NewTCPClient(transport.TCPClientOptions{ConnCache: true})
	t.Cleanup(func() { legs.Close() })
	var lns []*transport.TCPServer
	var switches []*HandlerSwitch
	eps := make([]Endpoint, n)
	for i := range eps {
		hs := &HandlerSwitch{}
		h := func(req *wire.Request) *wire.Response {
			if slow != nil && slow.Load() {
				req.Detach()
				time.Sleep(delay)
			}
			return hs.Handle(req)
		}
		ln, err := transport.ListenTCP("127.0.0.1:0", h, transport.EventDriven)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		lns = append(lns, ln)
		switches = append(switches, hs)
		eps[i] = Endpoint{Addr: ln.Addr(), Node: fmt.Sprintf("fan-node-%d", i)}
	}
	d, err := Bootstrap(cfg, eps, func(addr string, h transport.Handler) (transport.Listener, error) {
		for i, ep := range eps {
			if ep.Addr == addr {
				switches[i].Set(h)
				return nopListener{addr}, nil
			}
		}
		return nil, fmt.Errorf("no pre-bound listener for %s", addr)
	}, legs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	caller := transport.NewTCPClient(transport.TCPClientOptions{ConnCache: true})
	t.Cleanup(func() { caller.Close() })
	c, err := NewClient(cfg, d.Instance(0).Table(), caller)
	if err != nil {
		t.Fatal(err)
	}
	return d, lns, c
}

// A QUORUM read and a two-destination batch each cost one server's
// delay when every server is slow: the copies and envelopes are in
// flight together.
func TestFanOutsOverlapOverTCP(t *testing.T) {
	const delay = 100 * time.Millisecond
	var slow atomic.Bool
	cfg := Config{NumPartitions: 16, Replicas: 1, RetryBase: time.Millisecond}
	_, _, c := tcpDeployment(t, cfg, 2, delay, &slow)
	ops := make([]BatchOp, 16)
	for i := range ops {
		key := fmt.Sprintf("fan-%02d", i)
		if err := c.InsertWith(key, []byte("v-"+key), wire.ConsistencyAll); err != nil {
			t.Fatal(err)
		}
		ops[i] = BatchOp{Op: wire.OpLookup, Key: key}
	}
	table := c.Table()
	dests := map[string]bool{}
	for _, op := range ops {
		dests[table.Lookup(c.hashf(op.Key)).Addr] = true
	}
	if len(dests) != 2 {
		t.Fatalf("batch keys reach %d instances, want 2", len(dests))
	}
	slow.Store(true)
	defer slow.Store(false)
	bound := delay * 18 / 10

	start := time.Now()
	v, err := c.LookupWith("fan-00", wire.ConsistencyQuorum)
	if el := time.Since(start); err != nil || string(v) != "v-fan-00" {
		t.Fatalf("quorum read = %q, %v", v, err)
	} else if !raceEnabled && el >= bound {
		t.Fatalf("quorum read over two slow copies took %v, want < %v", el, bound)
	}

	start = time.Now()
	rs, err := c.Batch(ops)
	el := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if want := "v-" + ops[i].Key; r.Err != nil || string(r.Value) != want {
			t.Fatalf("batch slot %d = %q, %v; want %q", i, r.Value, r.Err, want)
		}
	}
	if !raceEnabled && el >= bound {
		t.Fatalf("batch to two slow instances took %v, want < %v", el, bound)
	}
}

// At Replicas=2 a QUORUM read needs two of three copies, so it
// survives a replica whose listener is gone.
func TestQuorumReadSkipsClosedReplica(t *testing.T) {
	cfg := Config{NumPartitions: 16, Replicas: 2, RetryBase: time.Millisecond}
	d, lns, c := tcpDeployment(t, cfg, 3, 0, nil)
	const key = "closed-replica"
	if err := c.InsertWith(key, []byte("v"), wire.ConsistencyAll); err != nil {
		t.Fatal(err)
	}
	table := c.Table()
	first := table.ReplicasOf(table.Partition(c.hashf(key)), cfg.Replicas)[0]
	for i, in := range d.Instances() {
		if in.ID() == first.ID {
			lns[i].Close()
		}
	}
	for i := 0; i < 3; i++ {
		if v, err := c.LookupWith(key, wire.ConsistencyQuorum); err != nil || string(v) != "v" {
			t.Fatalf("quorum read %d without the first replica = %q, %v", i, v, err)
		}
	}
}

// probeCounter counts the replica-read probes a client sends, and
// starts calls through the wrapped caller so TCP keeps its split
// phase; batches go straight through.
type probeCounter struct {
	transport.Caller
	probes atomic.Int64
}

func (p *probeCounter) count(req *wire.Request) {
	if req.Op == wire.OpLookup && req.Flags&wire.FlagReplicaRead != 0 {
		p.probes.Add(1)
	}
}

func (p *probeCounter) Call(addr string, req *wire.Request) (*wire.Response, error) {
	p.count(req)
	return p.Caller.Call(addr, req)
}

func (p *probeCounter) Start(addr string, req *wire.Request) transport.Pending {
	p.count(req)
	return p.Caller.Start(addr, req)
}

func TestQuorumReadSendsOneProbePerReplica(t *testing.T) {
	cfg := Config{NumPartitions: 16, Replicas: 1, RetryBase: time.Millisecond}
	d, _, c := tcpDeployment(t, cfg, 2, 0, nil)
	pc := &probeCounter{Caller: c.caller}
	c, err := NewClient(cfg, d.Instance(0).Table(), pc)
	if err != nil {
		t.Fatal(err)
	}
	const reads = 20
	for i := 0; i < reads; i++ {
		key := fmt.Sprintf("probe-%02d", i)
		if err := c.InsertWith(key, []byte("v"), wire.ConsistencyAll); err != nil {
			t.Fatal(err)
		}
		if v, err := c.LookupWith(key, wire.ConsistencyQuorum); err != nil || string(v) != "v" {
			t.Fatalf("quorum read %s = %q, %v", key, v, err)
		}
	}
	if n := pc.probes.Load(); n != reads {
		t.Fatalf("%d replica probes for %d QUORUM reads at Replicas=1, want exactly one each", n, reads)
	}
}

// inprocQuorumReadAllocs pins what an in-process QUORUM read at
// Replicas=2 allocates under the default OpDeadline: the owner's read
// is a budgeted call and each of the two replica probes a started one,
// so each of the three costs its goroutine's closure and its answer
// channel (the call itself lives in its Pending, by value); the probe
// the quorum does not need is abandoned. The rest is the owner's
// value copy and what the instances pay per read. 18 while a started
// call ran on a fallback goroutine of its own that then made a
// budgeted Call (its record, a second goroutine and a second channel).
const inprocQuorumReadAllocs = 14

func TestInprocQuorumReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	cfg := Config{NumPartitions: 16, Replicas: 2, AntiEntropy: -1}
	_, _, c := startDeployment(t, cfg, 3)
	if err := c.InsertWith("quorum-key", []byte("v"), wire.ConsistencyAll); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if v, err := c.LookupWith("quorum-key", wire.ConsistencyQuorum); err != nil || string(v) != "v" {
			t.Fatalf("quorum read = %q, %v", v, err)
		}
	})
	if allocs > inprocQuorumReadAllocs {
		t.Fatalf("in-process QUORUM read at r=2: %.2f allocs/op, budget %d", allocs, inprocQuorumReadAllocs)
	}
}

// hungListener starts a listener that accepts connections and holds
// them open until the test ends, reading nothing and answering nothing
// — a partitioned peer that still completes the TCP handshake. It
// returns the listener's address and a count of accepted connections.
func hungListener(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := new(atomic.Int64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			defer conn.Close()
		}
	}()
	return ln.Addr().String(), accepted
}

// hungClient returns a client of d, over a TCP caller of its own,
// whose table addresses instance id at a hungListener, and that
// listener's address.
func hungClient(t *testing.T, cfg Config, d *Deployment, id ring.InstanceID) (*Client, string) {
	t.Helper()
	hung, _ := hungListener(t)
	table := d.Instance(0).Table().Clone()
	table.Instances[table.IndexOf(id)].Addr = hung
	caller := transport.NewTCPClient(transport.TCPClientOptions{ConnCache: true})
	t.Cleanup(func() { caller.Close() })
	c, err := NewClient(cfg, table, caller)
	if err != nil {
		t.Fatal(err)
	}
	return c, hung
}

// wantBreakersClosed fails the test if c has opened the breaker of
// any instance but the one behind hung.
func wantBreakersClosed(t *testing.T, c *Client, hung string) {
	t.Helper()
	for _, in := range c.Table().Instances {
		if in.Addr != hung && !c.breaker.allow(in.Addr) {
			t.Errorf("breaker of healthy instance %s opened", in.Addr)
		}
	}
}

// Over TCP a batch awaits its envelopes in turn under one deadline. A
// first destination that accepts and never answers uses the deadline
// up. A second destination that answered in time still settles its
// sub-ops; one whose answer comes only after the deadline fails them.
// Either way its breaker is not charged: it was awaited only after the
// hung destination had used the deadline up.
func TestBatchBesideHungDestination(t *testing.T) {
	cfg := Config{NumPartitions: 16, Replicas: 1, RetryBase: time.Millisecond,
		OpDeadline: 200 * time.Millisecond}
	tuneBreakers(t, 1, time.Hour)
	var slow atomic.Bool
	d, _, healthy := tcpDeployment(t, cfg, 2, 2*cfg.OpDeadline, &slow)
	ops := make([]BatchOp, 16)
	for i := range ops {
		key := fmt.Sprintf("hung-batch-%02d", i)
		if err := healthy.InsertWith(key, []byte("v-"+key), wire.ConsistencyAll); err != nil {
			t.Fatal(err)
		}
		ops[i] = BatchOp{Op: wire.OpLookup, Key: key}
	}
	table := healthy.Table()
	first := table.Instances[0] // envelopes are awaited in ring order
	for _, late := range []bool{false, true} {
		t.Run(fmt.Sprintf("answer after deadline=%v", late), func(t *testing.T) {
			slow.Store(late)
			defer slow.Store(false)
			c, hung := hungClient(t, cfg, d, first.ID)
			rs, err := c.Batch(ops)
			if err != nil {
				t.Fatal(err)
			}
			second := 0
			for i, r := range rs {
				if table.Lookup(c.hashf(ops[i].Key)).ID == first.ID {
					continue
				}
				second++
				if want := "v-" + ops[i].Key; !late && (r.Err != nil || string(r.Value) != want) {
					t.Errorf("slot %d = %q, %v; want %q", i, r.Value, r.Err, want)
				} else if late && r.Err == nil {
					t.Errorf("slot %d settled from an answer that came after the deadline", i)
				}
			}
			if second == 0 || second == len(ops) {
				t.Fatalf("%d of %d keys on the second instance, want both destinations in the batch", second, len(ops))
			}
			wantBreakersClosed(t, c, hung)
		})
	}
}

// At Replicas=2 a QUORUM read needs two of three copies. The owner's
// read and the first replica's probe are awaited before the second
// probe; whichever of them accepts and never answers uses the deadline
// up, and the read is still served by the two copies that answered in
// time, without charging their breakers.
func TestQuorumReadBesideHungCopy(t *testing.T) {
	cfg := Config{NumPartitions: 16, Replicas: 2, RetryBase: time.Millisecond,
		OpDeadline: 200 * time.Millisecond}
	tuneBreakers(t, 1, time.Hour)
	d, _, healthy := tcpDeployment(t, cfg, 3, 0, nil)
	const key = "hung-copy"
	if err := healthy.InsertWith(key, []byte("v"), wire.ConsistencyAll); err != nil {
		t.Fatal(err)
	}
	table := healthy.Table()
	p := table.Partition(healthy.hashf(key))
	for _, tc := range []struct {
		name string
		hung ring.InstanceID
	}{
		{"owner", table.Instances[table.Owner[p]].ID},
		{"first replica", table.ReplicasOf(p, cfg.Replicas)[0].ID},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, hung := hungClient(t, cfg, d, tc.hung)
			if v, err := c.LookupWith(key, wire.ConsistencyQuorum); err != nil || string(v) != "v" {
				t.Fatalf("quorum read with the %s hung = %q, %v", tc.name, v, err)
			}
			wantBreakersClosed(t, c, hung)
		})
	}
}

// A read-repair leg to a copy that accepts and never answers gives up
// at the operation deadline, and is not sent while the copy's breaker
// is open.
func TestReadRepairLegIsBounded(t *testing.T) {
	hung, accepted := hungListener(t)
	cfg := Config{NumPartitions: 16, Replicas: 1, RetryBase: time.Millisecond,
		OpDeadline: 150 * time.Millisecond}
	tuneBreakers(t, 1, time.Hour)
	d, _, _ := startDeployment(t, cfg, 2)
	caller := transport.NewTCPClient(transport.TCPClientOptions{ConnCache: true})
	defer caller.Close()
	c, err := NewClient(cfg, d.Instance(0).Table(), caller)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	c.repairCopy(0, hung, "k", []byte("v"), 1)
	if el := time.Since(start); el > cfg.OpDeadline+time.Second {
		t.Fatalf("repair leg to a hung copy took %v with a %v deadline", el, cfg.OpDeadline)
	}
	if c.breaker.allow(hung) {
		t.Fatal("a failed repair leg did not count against the copy's breaker")
	}
	before := accepted.Load()
	start = time.Now()
	c.repairCopy(0, hung, "k", []byte("v"), 1)
	if el := time.Since(start); el > 50*time.Millisecond || accepted.Load() != before {
		t.Fatalf("repair leg with the breaker open took %v and dialed %d times", el, accepted.Load()-before)
	}
}
