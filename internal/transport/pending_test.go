package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"zht/internal/metrics"
	"zht/internal/wire"
)

// Tests for the split-phase call (Caller.Start, Pending): several calls
// in flight from one goroutine and awaited in any order, abandoned,
// failed under, or timed out, on TCP, in process and over UDP. Run
// under -race -count=50 when the TCP client's read role changes.

// batchEcho answers an OpBatch envelope with echoHandler's answer per
// sub-request, and anything else with echoHandler's.
func batchEcho(req *wire.Request) *wire.Response {
	if req.Op != wire.OpBatch {
		return echoHandler(req)
	}
	subs, err := wire.DecodeOps(req.Aux)
	if err != nil {
		return &wire.Response{Status: wire.StatusError, Err: err.Error()}
	}
	rs := make([]*wire.Response, len(subs))
	for i, s := range subs {
		rs[i] = echoHandler(s)
	}
	return wire.NewBatchResponse(rs)
}

func lookup(key string) *wire.Request { return &wire.Request{Op: wire.OpLookup, Key: key} }

func TestStartsOnOneConnectionWaitedInReverse(t *testing.T) {
	peer := newScriptPeer(t)
	reg := metrics.NewRegistry()
	c := oneConnClient(t, reg)
	const n = 8
	var calls [n]Pending
	for i := range calls {
		calls[i] = c.Start(peer.addr(), lookup(fmt.Sprintf("k%d", i)))
	}
	conn := peer.accept()
	keyOf := make(map[uint64]string)
	var reqs [n]*wire.Request
	for i := range reqs {
		r := conn.next()
		if prev, dup := keyOf[r.Seq]; dup {
			t.Fatalf("%s and %s went out under the same seq %d", prev, r.Key, r.Seq)
		}
		keyOf[r.Seq] = r.Key
		reqs[i] = r
	}
	for _, r := range reqs {
		conn.reply(r)
	}
	// The last call's Wait reads every frame; the others find theirs
	// delivered.
	for i := n - 1; i >= 0; i-- {
		resp, err := calls[i].Wait()
		wantValue(t, fmt.Sprintf("call %d", i), outcome{resp, err}, fmt.Sprintf("echo:k%d", i))
	}
	if d := reg.Counter("zht.transport.dials").Value(); d != 1 {
		t.Fatalf("%d dials, want the one connection", d)
	}
}

// Calls started to two servers before either is awaited run in
// parallel: the pair costs one server's delay, not two.
func TestStartedCallsOverlap(t *testing.T) {
	const delay = 100 * time.Millisecond
	slow := func(req *wire.Request) *wire.Response {
		if req.Key == "slow" {
			req.Detach()
			time.Sleep(delay)
		}
		return echoHandler(req)
	}
	var addrs [2]string
	for i := range addrs {
		srv, err := ListenTCP("127.0.0.1:0", slow, EventDriven)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs[i] = srv.Addr()
	}
	c := NewTCPClient(TCPClientOptions{ConnCache: true})
	defer c.Close()
	for _, addr := range addrs { // dial outside the timed part
		if _, err := c.Call(addr, lookup("warm")); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	var calls [2]Pending
	for i, addr := range addrs {
		calls[i] = c.Start(addr, lookup("slow"))
	}
	for i := range calls {
		resp, err := calls[i].Wait()
		wantValue(t, fmt.Sprintf("server %d", i), outcome{resp, err}, "echo:slow:")
	}
	if el := time.Since(start); !raceEnabled && el >= delay*18/10 {
		t.Fatalf("two started calls took %v, want < %v: they did not overlap", el, delay*18/10)
	}
}

func TestAbandonedReplyIsNeverDelivered(t *testing.T) {
	wire.SetPoolPoison(true)
	defer wire.SetPoolPoison(false)
	peer := newScriptPeer(t)
	reg := metrics.NewRegistry()
	c := oneConnClient(t, reg)
	a := c.Start(peer.addr(), lookup("abandoned"))
	conn := peer.accept()
	ra := conn.next()
	a.Abandon()
	c.mu.Lock()
	mc := c.byAddr[peer.addr()][0]
	c.mu.Unlock()
	mc.mu.Lock()
	left := len(mc.inflight)
	mc.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d registrations left after Abandon, want 0", left)
	}
	// The abandoned call's channel is back in the pool, so the next
	// call most likely parks on it; its late reply must be dropped by
	// whoever reads it, never handed to a later call.
	var held [][]byte
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("k%d", i)
		p := c.Start(peer.addr(), lookup(key))
		r := conn.next()
		if i == 0 {
			conn.reply(ra)
		}
		conn.reply(r)
		resp, err := p.Wait()
		wantValue(t, key, outcome{resp, err}, "echo:"+key)
		held = append(held, resp.Value)
	}
	for i, v := range held {
		if want := fmt.Sprintf("echo:k%d", i); string(v) != want {
			t.Fatalf("retained value %d became %q, want %q", i, v, want)
		}
	}
	if d := reg.Counter("zht.transport.dials").Value(); d != 1 {
		t.Fatalf("%d dials, want 1: Abandon must not cost the connection", d)
	}
}

func TestResetBetweenStartAndWait(t *testing.T) {
	t.Run("fresh dial", func(t *testing.T) {
		peer := newScriptPeer(t)
		reg := metrics.NewRegistry()
		c := oneConnClient(t, reg)
		p := c.Start(peer.addr(), lookup("a"))
		conn := peer.accept()
		conn.next()
		conn.c.Close()
		done := make(chan outcome, 1)
		go func() {
			resp, err := p.Wait()
			done <- outcome{resp, err}
		}()
		conn2 := peer.accept()
		r := conn2.next()
		if r.Key != "a" {
			t.Fatalf("resent %q, want a", r.Key)
		}
		conn2.reply(r)
		wantValue(t, "a after redial", <-done, "echo:a")
		if d := reg.Counter("zht.transport.dials").Value(); d != 2 {
			t.Fatalf("%d dials, want 2 (the reset connection and the retry)", d)
		}
	})
	t.Run("destination gone", func(t *testing.T) {
		peer := newScriptPeer(t)
		c := oneConnClient(t, nil)
		p := c.Start(peer.addr(), lookup("a"))
		conn := peer.accept()
		conn.next()
		peer.ln.Close()
		conn.c.Close()
		if resp, err := p.Wait(); !errors.Is(err, ErrUnreachable) {
			t.Fatalf("Wait on a reset connection to a closed listener = %v %v, want ErrUnreachable", resp, err)
		}
	})
}

func TestDeadlinePassesInsideWait(t *testing.T) {
	peer := newScriptPeer(t)
	reg := metrics.NewRegistry()
	c := oneConnClient(t, reg)
	req := lookup("late")
	req.Budget = uint64(50 * time.Millisecond)
	p := c.Start(peer.addr(), req)
	conn := peer.accept()
	rl := conn.next()
	start := time.Now()
	if resp, err := p.Wait(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Wait past the budget = %v %v, want ErrTimeout", resp, err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("Wait took %v on a 50ms budget", el)
	}
	// The deadline cost the call, not the connection: the late reply is
	// dropped and the next call is answered on it.
	next := goCall(c, peer.addr(), "next", 0)
	rn := conn.next()
	conn.reply(rl)
	conn.reply(rn)
	wantValue(t, "next", <-next, "echo:next")
	if d := reg.Counter("zht.transport.dials").Value(); d != 1 {
		t.Fatalf("%d dials, want 1", d)
	}
}

// Waits begun after their calls' deadline still collect the answers
// that arrived in time — one still on the socket, one already delivered
// to its channel by the first Wait's read — as a caller awaiting
// started calls in turn must when an earlier one used the deadline up.
func TestLateWaitCollectsArrivedAnswers(t *testing.T) {
	peer := newScriptPeer(t)
	reg := metrics.NewRegistry()
	c := oneConnClient(t, reg)
	var calls [2]Pending
	for i := range calls {
		req := lookup(fmt.Sprintf("k%d", i))
		req.Budget = uint64(20 * time.Millisecond)
		calls[i] = c.Start(peer.addr(), req)
	}
	conn := peer.accept()
	r0, r1 := conn.next(), conn.next()
	conn.reply(r1) // read past by call 0's Wait, which delivers it
	conn.reply(r0)
	time.Sleep(60 * time.Millisecond)
	for i := range calls {
		resp, err := calls[i].Wait()
		wantValue(t, fmt.Sprintf("late wait %d", i), outcome{resp, err}, fmt.Sprintf("echo:k%d", i))
	}
	if d := reg.Counter("zht.transport.dials").Value(); d != 1 {
		t.Fatalf("%d dials, want 1", d)
	}
}

// The native TCP batch path: a started envelope per server, each
// answered in request order.
func TestStartBatchOverTCP(t *testing.T) {
	var addrs [2]string
	for i := range addrs {
		srv, err := ListenTCP("127.0.0.1:0", batchEcho, EventDriven)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs[i] = srv.Addr()
	}
	c := NewTCPClient(TCPClientOptions{ConnCache: true})
	defer c.Close()
	var calls [2]Pending
	for i, addr := range addrs {
		calls[i] = c.StartBatch(addr, []*wire.Request{lookup(fmt.Sprintf("s%d-a", i)), lookup(fmt.Sprintf("s%d-b", i))})
	}
	for i := range calls {
		rs, err := calls[i].WaitBatch()
		if err != nil || len(rs) != 2 {
			t.Fatalf("server %d: %v, %v", i, rs, err)
		}
		for j, sub := range []string{"a", "b"} {
			if want := fmt.Sprintf("echo:s%d-%s:", i, sub); string(rs[j].Value) != want {
				t.Fatalf("server %d slot %d = %q, want %q", i, j, rs[j].Value, want)
			}
		}
	}
	abandoned := c.StartBatch(addrs[0], []*wire.Request{lookup("gone")})
	abandoned.Abandon()
	if rs, err := c.CallBatch(addrs[0], []*wire.Request{lookup("after")}); err != nil || string(rs[0].Value) != "echo:after:" {
		t.Fatalf("batch after an abandoned one = %v, %v", rs, err)
	}
}

// Started calls and batches answer as Call and CallBatch do on every
// transport, and the transport keeps nothing of the requests once they
// are waited for: the caller overwrites them, and the answers it holds
// and the calls that follow are unchanged.
func TestStartedCallsAllTransports(t *testing.T) {
	for name, mk := range callersUnderTest(t, batchEcho) {
		t.Run(name, func(t *testing.T) {
			c, addr := mk()
			req := lookup("a")
			reqs := []*wire.Request{lookup("x"), lookup("y")}
			p := c.Start(addr, req)
			b := c.StartBatch(addr, reqs)
			resp, err := p.Wait()
			wantValue(t, "started call", outcome{resp, err}, "echo:a:")
			rs, err := b.WaitBatch()
			if err != nil || len(rs) != 2 {
				t.Fatalf("started batch = %v, %v", rs, err)
			}
			*req = wire.Request{Op: wire.OpLookup, Key: "reused"}
			*reqs[0] = wire.Request{Op: wire.OpLookup, Key: "reused"}
			if again, err := c.Call(addr, req); err != nil || string(again.Value) != "echo:reused:" {
				t.Fatalf("call on the reused request = %v, %v", again, err)
			}
			if string(resp.Value) != "echo:a:" || string(rs[0].Value) != "echo:x:" || string(rs[1].Value) != "echo:y:" {
				t.Fatalf("answers changed after their requests were reused: %q, %q, %q", resp.Value, rs[0].Value, rs[1].Value)
			}
			empty := c.StartBatch(addr, nil)
			if rs, err := empty.WaitBatch(); rs != nil || err != nil {
				t.Fatalf("empty batch = %v, %v", rs, err)
			}
		})
	}
}

// A UDP batch too large for one datagram goes out as several
// envelopes, one after another, inside StartBatch; WaitBatch hands
// back every answer in request order.
func TestUDPStartBatchAcrossDatagrams(t *testing.T) {
	var served atomic.Int64
	srv, err := ListenUDP("127.0.0.1:0", func(req *wire.Request) *wire.Response {
		served.Add(1)
		return batchEcho(req)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewUDPClient(UDPClientOptions{})
	defer c.Close()
	big := bytes.Repeat([]byte{'v'}, 20<<10)
	reqs := make([]*wire.Request, 4)
	for i := range reqs {
		reqs[i] = &wire.Request{Op: wire.OpInsert, Key: fmt.Sprint(i), Value: big}
	}
	p := c.StartBatch(srv.Addr(), reqs)
	if n := served.Load(); n < 2 {
		t.Fatalf("%d envelopes served when StartBatch returned, want every chunk (>= 2)", n)
	}
	rs, err := p.WaitBatch()
	if err != nil || len(rs) != len(reqs) {
		t.Fatalf("batch across datagrams = %d answers, %v", len(rs), err)
	}
	for i, r := range rs {
		if want := fmt.Sprintf("echo:%d:", i); !bytes.HasPrefix(r.Value, []byte(want)) || len(r.Value) != len(want)+len(big) {
			t.Fatalf("answer %d = %d bytes starting %q, want the echo of request %d", i, len(r.Value), r.Value[:min(len(r.Value), 16)], i)
		}
	}
}

// gatedHandler answers with a pooled response once gate lets it, and
// counts the answers it has given.
type gatedHandler struct {
	gate     chan struct{}
	answered atomic.Int64
}

func (g *gatedHandler) handle(*wire.Request) *wire.Response {
	<-g.gate
	r := wire.GetResponse()
	r.Status = wire.StatusOK
	r.SetPooledValue(append(wire.GetBuffer(), "pooled"...))
	g.answered.Add(1)
	return r
}

// An abandoned started call returns every pooled object it drew to the
// pools exactly once, whether it is abandoned before its handler
// answers or after the answer has arrived: once the servers are quiet,
// gets and puts are level. In process, "after" means the answer sits
// in the call's channel; over UDP, in the socket, where the next call
// on it drops it as stale.
func TestAbandonedStartedCallsReturnResponses(t *testing.T) {
	for _, name := range []string{"inproc", "udp"} {
		t.Run(name, func(t *testing.T) {
			g := &gatedHandler{gate: make(chan struct{})}
			c, addr := callersUnderTest(t, g.handle)[name]()
			reg := metrics.NewRegistry()
			wire.EnablePoolMetrics(reg)
			defer wire.EnablePoolMetrics(nil)
			gets, puts := reg.Counter("zht.wire.pool.gets"), reg.Counter("zht.wire.pool.puts")
			const n = 50
			for i := 0; i < n; i++ {
				p := c.Start(addr, lookup("k"))
				if i%2 == 0 {
					p.Abandon() // before the handler answers
					g.gate <- struct{}{}
				} else {
					g.gate <- struct{}{}
					for g.answered.Load() < int64(i+1) {
						time.Sleep(10 * time.Microsecond)
					}
					if p.srv != nil {
						for len(p.ch) == 0 {
							time.Sleep(10 * time.Microsecond)
						}
					} else {
						time.Sleep(time.Millisecond) // the datagram reaches the socket
					}
					p.Abandon()
				}
			}
			close(g.gate)
			// A call that follows reads any stale datagram left in the
			// socket it reuses.
			resp, err := c.Call(addr, lookup("last"))
			wantValue(t, "call after the abandoned ones", outcome{resp, err}, "pooled")
			wire.PutResponse(resp)
			deadline := time.Now().Add(5 * time.Second)
			for gets.Value() == 0 || puts.Value() != gets.Value() {
				if time.Now().After(deadline) {
					t.Fatalf("after %d abandoned calls: pool gets %d, puts %d", n, gets.Value(), puts.Value())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// An in-process call that runs out of budget before its handler
// answers returns the handler's response to the pool once the handler
// finishes: gets and puts end level.
func TestInprocTimedOutCallReturnsResponse(t *testing.T) {
	reg := NewRegistry()
	ln, err := reg.Listen("slow", func(*wire.Request) *wire.Response {
		time.Sleep(30 * time.Millisecond)
		r := wire.GetResponse()
		r.Status = wire.StatusOK
		return r
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c := reg.NewClient()
	mreg := metrics.NewRegistry()
	wire.EnablePoolMetrics(mreg)
	defer wire.EnablePoolMetrics(nil)
	gets, puts := mreg.Counter("zht.wire.pool.gets"), mreg.Counter("zht.wire.pool.puts")
	const n = 10
	for i := 0; i < n; i++ {
		req := lookup("k")
		req.Budget = uint64(5 * time.Millisecond)
		if _, err := c.Call("slow", req); !errors.Is(err, ErrTimeout) {
			t.Fatalf("call %d past its budget: %v, want ErrTimeout", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for puts.Value() != gets.Value() {
		if time.Now().After(deadline) {
			t.Fatalf("after %d timed-out calls: pool gets %d, puts %d", n, gets.Value(), puts.Value())
		}
		time.Sleep(time.Millisecond)
	}
}
