package chaos

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"zht/internal/core"
	"zht/internal/transport"
	"zht/internal/wire"
)

// chaosHarness is an inproc endpoint with a call counter, so tests
// can distinguish "request never delivered" from "ack lost".
type chaosHarness struct {
	reg   *transport.Registry
	calls atomic.Int64
}

func newHarness(t *testing.T, addr string) *chaosHarness {
	t.Helper()
	h := &chaosHarness{reg: transport.NewRegistry()}
	_, err := h.reg.Listen(addr, func(req *wire.Request) *wire.Response {
		h.calls.Add(1)
		return &wire.Response{Status: wire.StatusOK, Value: []byte(req.Key)}
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func always(sc []Rule) *Scenario { return &Scenario{Steps: []Step{{At: 0, Rules: sc}}} }

func TestDeterministicPerSeed(t *testing.T) {
	// Probabilistic rules on two destinations: same seed must yield an
	// identical decision trace, whether the calls are made with Call or
	// started and then waited for; a different seed must diverge.
	rules := []Rule{
		{To: "a", Drop: 0.5, Dup: 0.3},
		{To: "b", DropReply: 0.5, Jitter: time.Millisecond},
	}
	// run makes 40 calls to each destination, in turn, or starts each
	// pair of calls and then waits for them in the same order.
	run := func(seed int64, started bool) []Decision {
		h := newHarness(t, "a")
		if _, err := h.reg.Listen("b", func(req *wire.Request) *wire.Response {
			return &wire.Response{Status: wire.StatusOK}
		}); err != nil {
			t.Fatal(err)
		}
		c := Wrap(h.reg.NewClient(), always(rules), Options{
			Seed: seed, LossTimeout: time.Microsecond, Trace: true,
		})
		for i := 0; i < 40; i++ {
			ra := &wire.Request{Op: wire.OpLookup, Key: fmt.Sprint(i)}
			rb := &wire.Request{Op: wire.OpPing}
			if started {
				pa, pb := c.Start("a", ra), c.Start("b", rb)
				pa.Wait()
				pb.Wait()
			} else {
				c.Call("a", ra)
				c.Call("b", rb)
			}
		}
		return c.Trace()
	}
	same := func(what string, t1, t2 []Decision) {
		t.Helper()
		if len(t1) != len(t2) {
			t.Fatalf("%s: trace lengths differ: %d vs %d", what, len(t1), len(t2))
		}
		for i := range t1 {
			if t1[i] != t2[i] {
				t.Fatalf("%s: diverged at %d: %+v vs %+v", what, i, t1[i], t2[i])
			}
		}
	}
	t1, t2, t3 := run(42, false), run(42, false), run(43, false)
	same("same seed", t1, t2)
	same("started and then waited for, against called", t1, run(42, true))
	differs := len(t3) != len(t1)
	for i := 0; !differs && i < len(t1); i++ {
		differs = t1[i].Verdict != t3[i].Verdict || t1[i].Delay != t3[i].Delay
	}
	if !differs {
		t.Fatal("seeds 42 and 43 produced identical traces over 80 probabilistic calls")
	}
}

func TestDownFailsFast(t *testing.T) {
	h := newHarness(t, "a")
	c := Wrap(h.reg.NewClient(), always([]Rule{Down("a")}), Options{LossTimeout: time.Millisecond})
	_, err := c.Call("a", &wire.Request{Op: wire.OpPing})
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("got %v, want ErrUnreachable", err)
	}
	if n := h.calls.Load(); n != 0 {
		t.Fatalf("handler ran %d times on a downed endpoint", n)
	}
}

func TestDropLosesRequestBeforeHandler(t *testing.T) {
	h := newHarness(t, "a")
	c := Wrap(h.reg.NewClient(), always([]Rule{Lossy("", "a", 1.0)}), Options{LossTimeout: time.Millisecond})
	_, err := c.Call("a", &wire.Request{Op: wire.OpInsert, Key: "k", Value: []byte("v")})
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	if n := h.calls.Load(); n != 0 {
		t.Fatalf("handler ran %d times for a dropped request", n)
	}
}

func TestReplyLostAfterHandlerRan(t *testing.T) {
	// The ack-lost ambiguity: the op applies server-side but the
	// caller sees the same ErrTimeout as a lost request.
	h := newHarness(t, "a")
	c := Wrap(h.reg.NewClient(), always([]Rule{{To: "a", DropReply: 1.0}}), Options{LossTimeout: time.Millisecond})
	_, err := c.Call("a", &wire.Request{Op: wire.OpInsert, Key: "k", Value: []byte("v")})
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	if n := h.calls.Load(); n != 1 {
		t.Fatalf("handler ran %d times, want exactly 1 (op applied, ack lost)", n)
	}
}

func TestDupDeliversTwice(t *testing.T) {
	h := newHarness(t, "a")
	c := Wrap(h.reg.NewClient(), always([]Rule{Duplicating("", "a", 1.0)}), Options{})
	resp, err := c.Call("a", &wire.Request{Op: wire.OpInsert, Key: "k", Value: []byte("v")})
	if err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("dup call failed: %+v %v", resp, err)
	}
	if n := h.calls.Load(); n != 2 {
		t.Fatalf("handler ran %d times, want 2 (original + duplicate)", n)
	}
}

func TestSlowLinkRespectsBudget(t *testing.T) {
	// Injected latency larger than the request budget must surface as
	// ErrTimeout in about the budget's time, not the latency's.
	h := newHarness(t, "a")
	c := Wrap(h.reg.NewClient(), always([]Rule{SlowLink("", "a", time.Minute, 0)}), Options{})
	start := time.Now()
	_, err := c.Call("a", &wire.Request{Op: wire.OpPing, Budget: uint64(20 * time.Millisecond)})
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("budget-bounded loss took %v", el)
	}
}

// A request on a link with latency goes out when its call is waited
// for, so a started call abandoned before then never reaches its
// handler (a QUORUM read abandons the probes it no longer needs) and
// leaves no decision in the trace.
func TestAbandonedDelayedCallIsNeverSent(t *testing.T) {
	h := newHarness(t, "a")
	c := Wrap(h.reg.NewClient(), always([]Rule{SlowLink("", "a", time.Millisecond, 0)}), Options{Trace: true})
	p := c.Start("a", &wire.Request{Op: wire.OpPing})
	p.Abandon()
	time.Sleep(10 * time.Millisecond)
	if n := h.calls.Load(); n != 0 {
		t.Fatalf("handler ran %d times for an abandoned delayed call", n)
	}
	if tr := c.Trace(); len(tr) != 0 {
		t.Fatalf("trace = %+v, want no decision", tr)
	}
}

func TestPartitionIsSymmetric(t *testing.T) {
	h := newHarness(t, "a")
	// Our source is "x": Partition("x","a") matched in either
	// direction cuts the call.
	c := Wrap(h.reg.NewClient(), always([]Rule{Partition("x", "a")}),
		Options{Source: "x", LossTimeout: time.Millisecond})
	if _, err := c.Call("a", &wire.Request{Op: wire.OpPing}); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	// A different source is unaffected.
	c2 := Wrap(h.reg.NewClient(), always([]Rule{Partition("x", "a")}),
		Options{Source: "y", LossTimeout: time.Millisecond})
	if resp, err := c2.Call("a", &wire.Request{Op: wire.OpPing}); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("unpartitioned source blocked: %+v %v", resp, err)
	}
}

func TestScenarioSchedule(t *testing.T) {
	sc := &Scenario{Steps: []Step{
		{At: 0, Label: "healthy"},
		{At: 10 * time.Second, Label: "kill a", Rules: []Rule{Down("a")}},
		{At: 20 * time.Second, Label: "heal"},
	}}
	if got := sc.active(5 * time.Second); len(got) != 0 {
		t.Fatalf("t=5s: want no rules, got %+v", got)
	}
	if got := sc.active(15 * time.Second); len(got) != 1 || !got[0].Down {
		t.Fatalf("t=15s: want the Down rule, got %+v", got)
	}
	if got := sc.active(25 * time.Second); len(got) != 0 {
		t.Fatalf("t=25s: want healed, got %+v", got)
	}
	// Before the first step and with a nil scenario: no rules.
	var nilSc *Scenario
	if got := nilSc.active(time.Second); got != nil {
		t.Fatalf("nil scenario returned rules: %+v", got)
	}
}

func TestNoScenarioPassesThrough(t *testing.T) {
	h := newHarness(t, "a")
	c := Wrap(h.reg.NewClient(), nil, Options{Trace: true})
	resp, err := c.Call("a", &wire.Request{Op: wire.OpLookup, Key: "k"})
	if err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("passthrough failed: %+v %v", resp, err)
	}
	tr := c.Trace()
	if len(tr) != 1 || tr[0].Verdict != VerdictOK {
		t.Fatalf("trace = %+v, want one ok decision", tr)
	}
}

// startCounter counts what reaches the caller it wraps: calls (Call,
// CallBatch) and started calls (Start, StartBatch).
type startCounter struct {
	transport.Caller
	calls, starts atomic.Int64
}

func (s *startCounter) Call(addr string, req *wire.Request) (*wire.Response, error) {
	s.calls.Add(1)
	return s.Caller.Call(addr, req)
}

func (s *startCounter) CallBatch(addr string, reqs []*wire.Request) ([]*wire.Response, error) {
	s.calls.Add(1)
	return s.Caller.CallBatch(addr, reqs)
}

func (s *startCounter) Start(addr string, req *wire.Request) transport.Pending {
	s.starts.Add(1)
	return s.Caller.Start(addr, req)
}

func (s *startCounter) StartBatch(addr string, reqs []*wire.Request) transport.Pending {
	s.starts.Add(1)
	return s.Caller.StartBatch(addr, reqs)
}

// A client's fan-out through the chaos layer reaches the wrapped
// caller as started calls, the path it takes without the layer, while
// a scenario is active (its rules match no link the client uses): the
// soaks exercise the start path production runs. The fan-outs are a
// batch spread over every instance and a QUORUM read's replica probes.
func TestFanOutStartsThroughChaos(t *testing.T) {
	cfg := core.Config{NumPartitions: 32, Replicas: 2, RetryBase: time.Millisecond}
	d, reg, err := core.BootstrapInproc(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	inner := &startCounter{Caller: reg.NewClient()}
	cc := Wrap(inner, always([]Rule{Down("elsewhere"), Partition("x", "y")}), Options{Seed: 1, Trace: true})
	c, err := core.NewClient(cfg, d.Instance(0).Table(), cc)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]core.BatchOp, 64)
	for i := range ops {
		ops[i] = core.BatchOp{Op: wire.OpInsert, Key: fmt.Sprintf("fan-%d", i), Value: []byte("v")}
	}
	res, err := c.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("insert %d: %v", i, r.Err)
		}
	}
	if calls, starts := inner.calls.Load(), inner.starts.Load(); calls != 0 || starts != 3 {
		t.Fatalf("a batch over 3 instances reached the wrapped caller as %d calls and %d started calls, want 0 and 3", calls, starts)
	}
	inner.starts.Store(0)
	if v, err := c.LookupWith("fan-0", wire.ConsistencyQuorum); err != nil || string(v) != "v" {
		t.Fatalf("quorum read = %q, %v", v, err)
	}
	// The two replica probes are started; the owner's read, a route of
	// one, is a Call, which the layer makes as Start, then Wait.
	if calls, starts := inner.calls.Load(), inner.starts.Load(); calls != 0 || starts != 3 {
		t.Fatalf("a QUORUM read at r=2 reached the wrapped caller as %d calls and %d started calls, want 0 and 3", calls, starts)
	}
	for _, dec := range cc.Trace() {
		if dec.Verdict != VerdictOK {
			t.Fatalf("a rule matched a client link: %+v", dec)
		}
	}
}
