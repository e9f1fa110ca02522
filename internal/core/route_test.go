package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zht/internal/metrics"
	"zht/internal/ring"
	"zht/internal/transport"
	"zht/internal/wire"
)

// countingCaller counts the messages a client sends through it: plain
// calls (by op) and batched envelopes, and among both the ones started
// (Start, StartBatch) rather than called.
type countingCaller struct {
	inner transport.Caller

	mu        sync.Mutex
	calls     map[wire.Op]int
	envelopes int
	started   int
}

func newCountingCaller(inner transport.Caller) *countingCaller {
	return &countingCaller{inner: inner, calls: make(map[wire.Op]int)}
}

func (cc *countingCaller) count(op wire.Op, envelope, started bool) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if envelope {
		cc.envelopes++
	} else {
		cc.calls[op]++
	}
	if started {
		cc.started++
	}
}

func (cc *countingCaller) Call(addr string, req *wire.Request) (*wire.Response, error) {
	cc.count(req.Op, false, false)
	return cc.inner.Call(addr, req)
}

func (cc *countingCaller) CallBatch(addr string, reqs []*wire.Request) ([]*wire.Response, error) {
	cc.count(wire.OpBatch, true, false)
	return cc.inner.CallBatch(addr, reqs)
}

func (cc *countingCaller) Start(addr string, req *wire.Request) transport.Pending {
	cc.count(req.Op, false, true)
	return cc.inner.Start(addr, req)
}

func (cc *countingCaller) StartBatch(addr string, reqs []*wire.Request) transport.Pending {
	cc.count(wire.OpBatch, true, true)
	return cc.inner.StartBatch(addr, reqs)
}

func (cc *countingCaller) Close() error { return cc.inner.Close() }

// totals returns the plain calls of every op, the envelopes sent, and
// how many of either were started.
func (cc *countingCaller) totals() (calls, envelopes, started int) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for _, n := range cc.calls {
		calls += n
	}
	return calls, cc.envelopes, cc.started
}

// keysOwnedBy returns n keys whose partitions the instance at ring
// index idx owns in table.
func keysOwnedBy(c *Client, table *ring.Table, idx, n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		key := fmt.Sprintf("owned-%d", i)
		if table.Owner[table.Partition(c.hashf(key))] == idx {
			keys = append(keys, key)
		}
	}
	return keys
}

// TestRejectedReportRestoresUnmarkedTable drops a client's calls to
// one instance for a single op, until the client reports it. The
// manager's ping finds the instance alive and rejects the report, so
// the client's local failure mark must give way to the servers' table:
// every later op on the instance's partitions succeeds.
func TestRejectedReportRestoresUnmarkedTable(t *testing.T) {
	cfg := Config{NumPartitions: 16, Replicas: 1, RetryBase: time.Millisecond}
	d, reg, _ := startDeployment(t, cfg, 2)
	victim := d.Instance(1)
	inner := reg.NewClient()
	var drop atomic.Bool
	c, err := NewClient(cfg, d.Instance(0).Table(), callerFunc(func(addr string, req *wire.Request) (*wire.Response, error) {
		if req.Op == wire.OpReport {
			drop.Store(false) // back before the manager pings it
		}
		if drop.Load() && addr == victim.Addr() {
			return nil, transport.ErrUnreachable
		}
		return inner.Call(addr, req)
	}))
	if err != nil {
		t.Fatal(err)
	}
	table := c.Table()
	keys := keysOwnedBy(c, table, table.IndexOf(victim.ID()), 17)
	drop.Store(true)
	c.Insert(keys[0], []byte("glitch")) // may fail: the glitch hit it
	if drop.Load() {
		t.Fatal("the client never reported the unreachable instance")
	}
	for _, k := range keys[1:] {
		if err := c.Insert(k, []byte("v")); err != nil {
			t.Fatalf("insert %q after the rejected report: %v", k, err)
		}
	}
	got := c.Table()
	if got.Status[got.IndexOf(victim.ID())] != ring.Alive || got.Epoch != d.Instance(0).Epoch() {
		t.Fatalf("client table at epoch %d with the victim %s; servers at epoch %d",
			got.Epoch, got.Status[got.IndexOf(victim.ID())], d.Instance(0).Epoch())
	}
}

// TestStaleClientAdoptsServerTableOverLocalMark has a client with the
// bootstrap table and no gossip write through a Depart. Its failure
// mark for the departed instance forges the same epoch the departure
// published; the servers' table must still replace it, so every
// insert succeeds.
func TestStaleClientAdoptsServerTableOverLocalMark(t *testing.T) {
	d, _, _ := startDeployment(t, testCfg(), 4)
	stale, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	stale.gossip = nil
	if err := d.Depart(1); err != nil {
		t.Fatal(err)
	}
	ops := make([]BatchOp, 256)
	for i := range ops {
		ops[i] = BatchOp{Op: wire.OpInsert, Key: fmt.Sprintf("stale-%d", i), Value: []byte("v")}
	}
	res, err := stale.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("insert %d of %d from the stale client: %v", i, len(res), r.Err)
		}
	}
}

// TestWrongOwnerWithoutNewerTablePauses: the client and two instances
// hold a table in which a partition moved to B, which still holds the
// old one. B's WrongOwner answer carries no newer table, so the client
// pauses before the next round, as after a shed, while B catches up
// through the gossip pull the request's epoch triggers — which takes
// the 5 ms the two instances take to answer — and the insert lands
// instead of burning its rounds.
func TestWrongOwnerWithoutNewerTablePauses(t *testing.T) {
	cfg := Config{NumPartitions: 16, RetryBase: time.Millisecond}
	d, reg, c := startDeployment(t, cfg, 3)
	base := c.Table()
	b := d.Instance(1)
	reg.SetLatency(func(dst string) time.Duration {
		if dst == b.Addr() {
			return 0
		}
		return 5 * time.Millisecond
	})
	p := base.PartitionsOf(0)[0]
	moved := ring.EncodeDelta(ring.Delta{FromEpoch: base.Epoch, Reassign: map[int]ring.InstanceID{p: b.ID()}})
	for _, in := range []*Instance{d.Instance(0), d.Instance(2)} {
		if resp := in.Handle(&wire.Request{Op: wire.OpDelta, Aux: moved}); resp.Status != wire.StatusOK {
			t.Fatalf("%s: %s %s", in.ID(), resp.Status, resp.Err)
		}
	}
	c.adoptTable(d.Instance(0).Table())
	if err := c.Insert(keyForPartition(t, cfg, base, p), []byte("v")); err != nil {
		t.Fatalf("insert on the moved partition: %v", err)
	}
	if got, want := b.Epoch(), c.Table().Epoch; got != want {
		t.Fatalf("B at epoch %d, the client at %d", got, want)
	}
}

// TestBatchSubOpUnavailableCounted checks that a batch sub-op that
// settles with ErrUnavailable on its first answer (a write quorum the
// down replica cannot meet) counts in zht.client.unavailable, as a
// single op does.
func TestBatchSubOpUnavailableCounted(t *testing.T) {
	mreg := metrics.NewRegistry()
	cfg := Config{
		NumPartitions: 32, Replicas: 1,
		RetryBase: time.Millisecond, retryMax: 2 * time.Millisecond,
		WriteLevel: wire.ConsistencyAll,
		Metrics:    mreg,
	}
	d, reg, c := startDeployment(t, cfg, 3)
	table := d.Instance(0).Table()
	victim := d.Instance(2).ID()
	var keys []string
	for i := 0; len(keys) < 5; i++ {
		key := fmt.Sprintf("unavail-%d", i)
		p := table.Partition(c.hashf(key))
		if reps := table.ReplicasOf(p, 1); table.OwnerOf(p).ID != victim && len(reps) == 1 && reps[0].ID == victim {
			keys = append(keys, key)
		}
	}
	reg.SetDown(d.Instance(2).Addr(), true)
	unavailable := mreg.Counter("zht.client.unavailable")

	if err := c.Insert(keys[0], []byte("v")); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("single insert with the replica down: %v, want ErrUnavailable", err)
	}
	if got := unavailable.Value(); got != 1 {
		t.Fatalf("unavailable = %d after one refused single op, want 1", got)
	}
	ops := make([]BatchOp, len(keys)-1)
	for i, k := range keys[1:] {
		ops[i] = BatchOp{Op: wire.OpInsert, Key: k, Value: []byte("v")}
	}
	res, err := c.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !errors.Is(r.Err, ErrUnavailable) {
			t.Fatalf("batch insert %d: %v, want ErrUnavailable", i, r.Err)
		}
	}
	if got, want := unavailable.Value(), int64(1+len(ops)); got != want {
		t.Fatalf("unavailable = %d after the refused batch, want %d", got, want)
	}
}

// TestStragglersRerouteAsEnvelopes writes a 256-insert batch from a
// client holding the table from before a Depart. The departed
// instance's sub-ops re-route in the next round as one envelope per
// new owner, not one call each.
func TestStragglersRerouteAsEnvelopes(t *testing.T) {
	d, reg, _ := startDeployment(t, testCfg(), 4)
	cc := newCountingCaller(reg.NewClient())
	stale, err := NewClient(testCfg(), d.Instance(0).Table(), cc)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Depart(1); err != nil {
		t.Fatal(err)
	}
	ops := make([]BatchOp, 256)
	for i := range ops {
		ops[i] = BatchOp{Op: wire.OpInsert, Key: fmt.Sprintf("straggler-%d", i), Value: []byte("v")}
	}
	res, err := stale.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("insert %d: %v", i, r.Err)
		}
	}
	calls, envelopes, _ := cc.totals()
	if calls+envelopes > 16 {
		cc.mu.Lock()
		t.Fatalf("%d calls (%v) + %d envelopes for one batch across a Depart, want <= 16",
			calls, cc.calls, envelopes)
	}
}

// TestSingleOpIsPlainCall pins that a single op of every kind is one
// plain Call on the calling goroutine — no envelope and no started
// call — and that the single-op metrics keep counting single ops only.
func TestSingleOpIsPlainCall(t *testing.T) {
	mreg := metrics.NewRegistry()
	cfg := testCfg()
	cfg.Metrics = mreg
	d, reg, err := BootstrapInproc(Config{NumPartitions: 64, Replicas: 2, RetryBase: time.Millisecond}, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	cc := newCountingCaller(reg.NewClient())
	c, err := NewClient(cfg, d.Instance(0).Table(), cc)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("single-%d", i)
		steps := []func() error{
			func() error { return c.Insert(k, []byte("a")) },
			func() error { return c.InsertIfAbsent(k+"-new", []byte("a")) },
			func() error { _, err := c.Lookup(k); return err },
			func() error { return c.Append(k, []byte("b")) },
			func() error { _, err := c.Cas(k, []byte("ab"), []byte("c")); return err },
			func() error { return c.Remove(k) },
		}
		for j, step := range steps {
			if err := step(); err != nil {
				t.Fatalf("key %d step %d: %v", i, j, err)
			}
			n++
		}
	}
	calls, envelopes, started := cc.totals()
	if calls != n || envelopes != 0 || started != 0 {
		cc.mu.Lock()
		t.Fatalf("%d single ops made %d calls (%v), %d envelopes, %d started calls; want %d, 0, 0",
			n, calls, cc.calls, envelopes, started, n)
	}
	if got := mreg.Counter("zht.client.ops").Value(); got != int64(n) {
		t.Fatalf("zht.client.ops = %d, want %d", got, n)
	}
	if got := mreg.Counter("zht.client.batches").Value(); got != 0 {
		t.Fatalf("zht.client.batches = %d after single ops only", got)
	}
	want := int64(n / metrics.SampleEvery)
	if got := mreg.Histogram("zht.client.op.all.latency_ns").Count(); got != want {
		t.Fatalf("zht.client.op.all.latency_ns count = %d, want %d (one op in %d)", got, want, metrics.SampleEvery)
	}
	// A batch of one is a route of one too: a plain call, counted as a
	// batch.
	if _, err := c.Batch([]BatchOp{{Op: wire.OpLookup, Key: "single-0"}}); err != nil {
		t.Fatal(err)
	}
	if calls, envelopes, started := cc.totals(); calls != n+1 || envelopes != 0 || started != 0 {
		t.Fatalf("a batch of one made %d calls, %d envelopes, %d started calls; want 1, 0, 0",
			calls-n, envelopes, started)
	}
	if got := mreg.Counter("zht.client.batches").Value(); got != 1 {
		t.Fatalf("zht.client.batches = %d after one Batch, want 1", got)
	}
}
