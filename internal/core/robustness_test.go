package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zht/internal/metrics"
	"zht/internal/transport"
	"zht/internal/wire"
)

// Tests for the robustness layer: per-endpoint circuit breaker,
// StatusBusy retry handling, and the end-to-end operation deadline.

// tuneBreakers makes every breaker built until the test ends trip
// after threshold consecutive failures and cool down for cooldown.
func tuneBreakers(t *testing.T, threshold int, cooldown time.Duration) {
	testBreakerTuning = func(b *breaker) { b.threshold, b.cooldown = threshold, cooldown }
	t.Cleanup(func() { testBreakerTuning = nil })
}

func TestBreakerTripAndRecover(t *testing.T) {
	reg := metrics.NewRegistry()
	trips := reg.Counter("zht.client.breaker.trips")
	openG := reg.Gauge("zht.client.breaker.open")
	b := newBreaker(trips, openG)
	b.threshold, b.cooldown = 3, 50*time.Millisecond
	const ep = "node-1"
	// Closed: failures below the threshold keep admitting.
	for i := 0; i < 2; i++ {
		if !b.allow(ep) {
			t.Fatalf("closed circuit rejected call after %d failures", i)
		}
		b.failure(ep)
	}
	if !b.allow(ep) {
		t.Fatal("circuit opened before the threshold")
	}
	b.failure(ep) // third consecutive failure: trips
	if b.allow(ep) {
		t.Fatal("open circuit admitted a call before the cooldown")
	}
	if trips.Value() != 1 || openG.Value() != 1 {
		t.Fatalf("after trip: trips=%d open=%d, want 1/1", trips.Value(), openG.Value())
	}
	// Other endpoints are independent.
	if !b.allow("node-2") {
		t.Fatal("unrelated endpoint rejected")
	}
	// Half-open: after the cooldown exactly one probe gets through.
	time.Sleep(60 * time.Millisecond)
	if !b.allow(ep) {
		t.Fatal("no probe admitted after cooldown")
	}
	if b.allow(ep) {
		t.Fatal("second concurrent probe admitted in half-open state")
	}
	// Failed probe: re-opens and restarts the cooldown.
	b.failure(ep)
	if b.allow(ep) {
		t.Fatal("admitted immediately after a failed probe")
	}
	time.Sleep(60 * time.Millisecond)
	if !b.allow(ep) {
		t.Fatal("no probe after the restarted cooldown")
	}
	// Successful probe closes the circuit fully.
	b.success(ep)
	for i := 0; i < 3; i++ {
		if !b.allow(ep) {
			t.Fatal("closed circuit rejected after success")
		}
	}
	// A failed probe re-opens without re-counting a trip; the final
	// success closed the circuit, so the open gauge returns to zero.
	if trips.Value() != 1 {
		t.Fatalf("trips = %d, want 1 (re-open after failed probe must not re-count)", trips.Value())
	}
	if openG.Value() != 0 {
		t.Fatalf("open gauge = %d, want 0 after recovery", openG.Value())
	}
	if n := b.tracked.Load(); n != 0 {
		t.Fatalf("tracked = %d with every circuit closed, want 0", n)
	}

	// Concurrent phase (meaningful under -race): callers on several
	// goroutines trip, probe and close circuits on a few endpoints at
	// once, racing the lock-free fast path against the transitions.
	eps := []string{"c-0", "c-1", "c-2", "c-3"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				ep := eps[(g+i)%len(eps)]
				if !b.allow(ep) {
					continue
				}
				if (g*7+i)%5 < 3 {
					b.failure(ep)
				} else {
					b.success(ep)
				}
			}
		}(g)
	}
	wg.Wait()
	b.mu.Lock()
	held, open := len(b.eps), 0
	for _, c := range b.eps {
		if c.open {
			open++
		}
	}
	b.mu.Unlock()
	if n := b.tracked.Load(); n != int64(held) {
		t.Fatalf("after concurrent use: tracked = %d, but %d circuits are held", n, held)
	}
	if openG.Value() != int64(open) {
		t.Fatalf("after concurrent use: open gauge = %d, but %d circuits are open", openG.Value(), open)
	}
	// The machine still works: a tripped circuit fails fast, and one
	// successful half-open probe closes it.
	for i := 0; i < 3; i++ {
		b.failure("c-0")
	}
	if b.allow("c-0") {
		t.Fatal("tripped circuit admitted a call before the cooldown")
	}
	time.Sleep(60 * time.Millisecond)
	if !b.allow("c-0") {
		t.Fatal("no probe admitted after cooldown")
	}
	b.success("c-0")
	if !b.allow("c-0") {
		t.Fatal("circuit still rejects after a successful probe")
	}
	for _, ep := range eps {
		b.success(ep)
	}
	if n := b.tracked.Load(); n != 0 || openG.Value() != 0 {
		t.Fatalf("after every endpoint answered: tracked = %d, open gauge = %d, want 0/0", n, openG.Value())
	}
}

// TestBreakerProbeWithoutVerdict pins that a half-open probe whose
// call never reports back — abandoned by a quorum read, or a late
// timeout strike skips — holds the circuit for one cooldown only: the
// next cooldown admits the next probe.
func TestBreakerProbeWithoutVerdict(t *testing.T) {
	b := newBreaker(nil, nil)
	b.threshold, b.cooldown = 1, 20*time.Millisecond
	const ep = "node-1"
	b.failure(ep)
	time.Sleep(30 * time.Millisecond)
	if !b.allow(ep) {
		t.Fatal("no probe admitted after the cooldown")
	}
	if b.allow(ep) {
		t.Fatal("second probe admitted within one cooldown")
	}
	time.Sleep(30 * time.Millisecond)
	if !b.allow(ep) {
		t.Fatal("a probe that reported no verdict still holds the circuit a cooldown later")
	}
}

// TestBreakerProbeOnAliveVerdict pins probe: an open circuit admits
// exactly one call at once, as if its cooldown had elapsed, and a
// closed or untracked endpoint stays untracked.
func TestBreakerProbeOnAliveVerdict(t *testing.T) {
	b := newBreaker(nil, nil)
	b.threshold, b.cooldown = 1, time.Hour
	const ep = "node-1"
	b.probe(ep)
	if n := b.tracked.Load(); n != 0 {
		t.Fatalf("probe of a closed circuit tracked %d circuits", n)
	}
	b.failure(ep)
	if b.allow(ep) {
		t.Fatal("open circuit admitted a call before the cooldown")
	}
	b.probe(ep)
	if !b.allow(ep) {
		t.Fatal("no probe admitted after the alive verdict")
	}
	if b.allow(ep) {
		t.Fatal("second call admitted after one alive verdict")
	}
}

// busyFirst answers the first k calls with StatusBusy (as an
// overloaded server's admission gate would) and then delegates.
type busyFirst struct {
	inner     transport.Caller
	remaining atomic.Int64
	busySent  atomic.Int64
}

func (b *busyFirst) Call(addr string, req *wire.Request) (*wire.Response, error) {
	if b.remaining.Add(-1) >= 0 {
		b.busySent.Add(1)
		return &wire.Response{Status: wire.StatusBusy, Seq: req.Seq, RetryAfter: uint64(time.Millisecond)}, nil
	}
	return b.inner.Call(addr, req)
}

func (b *busyFirst) CallBatch(addr string, reqs []*wire.Request) ([]*wire.Response, error) {
	return transport.EnvelopeCallBatch(b, addr, reqs)
}

func (b *busyFirst) Close() error { return b.inner.Close() }

func TestClientRetriesThroughBusy(t *testing.T) {
	d, reg, _ := startDeployment(t, testCfg(), 3)
	shim := &busyFirst{inner: reg.NewClient()}
	shim.remaining.Store(3)
	c, err := NewClient(testCfg(), d.Instance(0).Table(), shim)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("busy-key", []byte("v")); err != nil {
		t.Fatalf("insert through transient overload: %v", err)
	}
	if n := shim.busySent.Load(); n != 3 {
		t.Fatalf("client saw %d busy responses, want 3", n)
	}
	v, err := c.Lookup("busy-key")
	if err != nil || string(v) != "v" {
		t.Fatalf("read-back: %q %v", v, err)
	}
}

func TestBusyDoesNotTripBreaker(t *testing.T) {
	d, reg, _ := startDeployment(t, testCfg(), 3)
	shim := &busyFirst{inner: reg.NewClient()}
	shim.remaining.Store(8) // well past the breaker threshold
	tuneBreakers(t, 2, breakerCooldown)
	c, err := NewClient(testCfg(), d.Instance(0).Table(), shim)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("busy-key-2", []byte("v")); err != nil {
		t.Fatalf("insert through sustained overload: %v", err)
	}
	// A busy server is alive: no circuit may be open.
	for _, in := range d.Instances() {
		if !c.breaker.allow(in.Addr()) {
			t.Fatalf("busy responses tripped the breaker for %s", in.Addr())
		}
	}
}

func TestOpDeadlineBoundsSlowDeployment(t *testing.T) {
	cfg := testCfg()
	cfg.OpDeadline = 100 * time.Millisecond
	cfg.opRetries = 10 // would take seconds without the deadline
	d, reg, c := startDeployment(t, cfg, 3)
	_ = d
	// Every hop — including retries and failover probes — crawls.
	reg.SetLatency(func(dst string) time.Duration { return 250 * time.Millisecond })
	defer reg.SetLatency(nil)
	start := time.Now()
	err := c.Insert("slow-key", []byte("v"))
	elapsed := time.Since(start)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("got %v, want ErrUnavailable", err)
	}
	// One deadline for the whole op, not per attempt: 100ms budget
	// plus one in-flight 250ms call and scheduling slack.
	if elapsed > 2*time.Second {
		t.Fatalf("op with a 100ms deadline took %v", elapsed)
	}
}

func TestOpDeadlinePropagatesBudget(t *testing.T) {
	d, reg, _ := startDeployment(t, testCfg(), 3)
	var sawBudget atomic.Bool
	shim := callerFunc(func(addr string, req *wire.Request) (*wire.Response, error) {
		if req.Budget > 0 && time.Duration(req.Budget) <= DefaultOpDeadline {
			sawBudget.Store(true)
		}
		return reg.NewClient().Call(addr, req)
	})
	c, err := NewClient(testCfg(), d.Instance(0).Table(), shim)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("budget-key", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if !sawBudget.Load() {
		t.Fatal("client calls carried no Budget despite OpDeadline being set")
	}
}

type callerFunc func(addr string, req *wire.Request) (*wire.Response, error)

func (f callerFunc) Call(addr string, req *wire.Request) (*wire.Response, error) {
	return f(addr, req)
}
func (f callerFunc) CallBatch(addr string, reqs []*wire.Request) ([]*wire.Response, error) {
	return transport.EnvelopeCallBatch(f, addr, reqs)
}
func (f callerFunc) Close() error { return nil }

func TestCircuitOpensOnDeadEndpointAndOpsFailFast(t *testing.T) {
	cfg := Config{NumPartitions: 8, Replicas: 0, RetryBase: time.Millisecond,
		opRetries: 1, OpDeadline: 2 * time.Second}
	tuneBreakers(t, 2, 10*time.Second)
	d, reg, c := startDeployment(t, cfg, 1)
	addr := d.Instance(0).Addr()
	reg.SetDown(addr, true)
	// Burn through enough failed ops to trip the endpoint's circuit.
	for i := 0; i < 3; i++ {
		if err := c.Insert(fmt.Sprintf("dead-%d", i), []byte("v")); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("op %d against dead single node: %v", i, err)
		}
	}
	if c.breaker.allow(addr) {
		t.Fatal("circuit still closed after repeated transport failures")
	}
	// With the circuit open, ops fail fast — no backoff sleeps, no
	// transport attempts.
	start := time.Now()
	err := c.Insert("fast-fail", []byte("v"))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("got %v, want ErrUnavailable", err)
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("open-circuit op took %v, want fail-fast", el)
	}
	// Recovery: node returns, cooldown elapses, probe closes circuit.
	reg.SetDown(addr, false)
	c.breaker.success(addr) // stand in for cooldown expiry in test time
	if err := c.Insert("revived", []byte("v")); err != nil {
		t.Fatalf("op after recovery: %v", err)
	}
}

// TestClientOutageHeals cuts every link of one client for the span of
// one Lookup while the servers stay healthy. The client must not keep
// its own record of the outage: once the breaker's cooldown has passed
// it serves every key again, and its table is the servers' (same
// epoch, no instance Failed).
func TestClientOutageHeals(t *testing.T) {
	cfg := Config{NumPartitions: 64, Replicas: 1, RetryBase: time.Millisecond}
	const cooldown = 20 * time.Millisecond
	tuneBreakers(t, breakerThreshold, cooldown)
	d, reg, _ := startDeployment(t, cfg, 3)
	inner := reg.NewClient()
	var cut atomic.Bool
	c, err := NewClient(cfg, d.Instance(0).Table(), callerFunc(func(addr string, req *wire.Request) (*wire.Response, error) {
		if cut.Load() {
			return nil, transport.ErrUnreachable
		}
		return inner.Call(addr, req)
	}))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("outage-%d", i)
		if err := c.Insert(keys[i], []byte(keys[i])); err != nil {
			t.Fatal(err)
		}
	}
	cut.Store(true)
	if _, err := c.Lookup(keys[0]); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("lookup with every client link cut: %v, want ErrUnavailable", err)
	}
	cut.Store(false)
	time.Sleep(2 * cooldown)
	for _, k := range keys {
		if v, err := c.Lookup(k); err != nil || string(v) != k {
			t.Fatalf("lookup %s after the outage = %q, %v", k, v, err)
		}
	}
	tab, srv := c.Table(), d.Instance(0).Table()
	if tab.Epoch != srv.Epoch || tab.AliveCount() != len(tab.Instances) {
		t.Fatalf("client table at epoch %d with %d of %d alive; servers at epoch %d",
			tab.Epoch, tab.AliveCount(), len(tab.Instances), srv.Epoch)
	}
}

// TestHealedOwnerWithOpenCircuit cuts the client's link to one owner
// for the span of one Lookup, which opens the owner's circuit, then
// heals the link well inside the cooldown. The manager finds the owner
// alive when the client reports it, and that verdict must let the
// circuit half-open: every lookup on the owner's keys succeeds at
// once, and none costs more than one failure report.
func TestHealedOwnerWithOpenCircuit(t *testing.T) {
	cfg := Config{NumPartitions: 64, Replicas: 1, RetryBase: time.Millisecond}
	tuneBreakers(t, 1, 200*time.Millisecond)
	d, reg, _ := startDeployment(t, cfg, 3)
	inner := reg.NewClient()
	owner := d.Instance(1)
	var cut atomic.Bool
	var reports atomic.Int64
	c, err := NewClient(cfg, d.Instance(0).Table(), callerFunc(func(addr string, req *wire.Request) (*wire.Response, error) {
		if req.Op == wire.OpReport {
			reports.Add(1)
		}
		if cut.Load() && addr == owner.Addr() {
			return nil, transport.ErrUnreachable
		}
		return inner.Call(addr, req)
	}))
	if err != nil {
		t.Fatal(err)
	}
	ops := ownedKeys(t, owner, "healed", 10)
	for _, op := range ops {
		if err := c.Insert(op.Key, op.Value); err != nil {
			t.Fatal(err)
		}
	}
	cut.Store(true)
	if _, err := c.Lookup(ops[0].Key); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("lookup with the owner's link cut: %v, want ErrUnavailable", err)
	}
	cut.Store(false)
	if c.breaker.tracked.Load() == 0 {
		t.Fatal("the cut lookup left the owner's circuit closed")
	}
	for _, op := range ops {
		reports.Store(0)
		if v, err := c.Lookup(op.Key); err != nil || string(v) != string(op.Value) {
			t.Fatalf("lookup %s after the heal = %q, %v", op.Key, v, err)
		}
		if n := reports.Load(); n > 1 {
			t.Fatalf("lookup %s after the heal sent %d failure reports, want at most 1", op.Key, n)
		}
	}
}

// TestAbandonedQuorumProbeReleasesCircuit trips the circuit of a
// partition's second replica X, then runs a QUORUM read of the
// partition after the cooldown: the read admits X's half-open probe
// and abandons it once the owner and the first replica answered. X
// must still be reachable afterwards — the abandoned probe holds its
// circuit for one cooldown, not for good.
func TestAbandonedQuorumProbeReleasesCircuit(t *testing.T) {
	cfg := Config{NumPartitions: 64, Replicas: 2, RetryBase: time.Millisecond}
	const cooldown = 5 * time.Millisecond
	tuneBreakers(t, 1, cooldown)
	d, _, c := startDeployment(t, cfg, 3)
	table := c.Table()
	const key = "probe"
	x := table.ReplicasOf(table.Partition(c.hashf(key)), cfg.Replicas)[1]
	if err := c.Insert(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.breaker.failure(x.Addr) // one failed call trips X's circuit
	time.Sleep(2 * cooldown)
	if v, err := c.LookupWith(key, wire.ConsistencyQuorum); err != nil || string(v) != "v" {
		t.Fatalf("quorum read = %q, %v", v, err)
	}
	time.Sleep(100 * time.Millisecond)
	for _, op := range ownedKeys(t, d.Instance(table.IndexOf(x.ID)), "x-owned", 8) {
		if err := c.Insert(op.Key, op.Value); err != nil {
			t.Fatalf("insert on a key %s owns, 100 ms after the quorum read: %v", x.ID, err)
		}
	}
	if n := c.breaker.tracked.Load(); n != 0 {
		t.Fatalf("%d circuits still tracked after %s answered", n, x.ID)
	}
}

func TestBackoffIsCappedAndJittered(t *testing.T) {
	cfg := testCfg()
	cfg.RetryBase = 4 * time.Millisecond
	cfg.retryMax = 16 * time.Millisecond
	d, reg, _ := startDeployment(t, cfg, 1)
	_ = d
	c, err := NewClient(cfg, d.Instance(0).Table(), reg.NewClient())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[time.Duration]bool)
	for i := 0; i < 200; i++ {
		for attempt := 0; attempt < 12; attempt++ {
			got := c.backoff(attempt)
			if got <= 0 {
				t.Fatalf("backoff(%d) = %v, want positive", attempt, got)
			}
			if got > cfg.retryMax {
				t.Fatalf("backoff(%d) = %v exceeds cap %v", attempt, got, cfg.retryMax)
			}
			ceil := cfg.RetryBase << uint(attempt)
			if ceil > cfg.retryMax || ceil <= 0 {
				ceil = cfg.retryMax
			}
			if got > ceil {
				t.Fatalf("backoff(%d) = %v exceeds exponential ceiling %v", attempt, got, ceil)
			}
			seen[got] = true
		}
	}
	// Full jitter: values must actually vary, or concurrent clients
	// would synchronize their retry storms.
	if len(seen) < 20 {
		t.Fatalf("backoff produced only %d distinct values over 2400 draws", len(seen))
	}
}

func TestPerClientRNGsDiverge(t *testing.T) {
	// The seeding bug this guards against: two clients created in the
	// same UnixNano tick shared identical jitter streams.
	d, reg, _ := startDeployment(t, testCfg(), 1)
	c1, err := NewClient(testCfg(), d.Instance(0).Table(), reg.NewClient())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewClient(testCfg(), d.Instance(0).Table(), reg.NewClient())
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	const draws = 32
	for i := 0; i < draws; i++ {
		if c1.backoff(8) == c2.backoff(8) {
			same++
		}
	}
	if same == draws {
		t.Fatal("two clients produced identical backoff streams: RNG seeds collided")
	}
}
