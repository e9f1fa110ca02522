package transport

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"zht/internal/metrics"
	"zht/internal/wire"
)

// In-process transport: a registry of named endpoints dispatched by
// direct function call. It lets tests and benchmarks deploy hundreds
// of ZHT instances inside one process — playing the role the Blue
// Gene/P allocation played for the paper — and supports fault
// injection (downed endpoints, extra latency, partitions).

// Registry is an in-process network. The zero value is not usable;
// call NewRegistry.
//
// A call reads the network from one immutable view published behind an
// atomic pointer, so calls on every core take no lock; Listen, Close,
// SetDown and SetLatency are rare and copy the view, serialized by mu.
type Registry struct {
	mu   sync.Mutex // serializes view writers
	view atomic.Pointer[regView]
	cmet cliMetrics
}

// regView is one published state of a Registry; it is never modified
// once stored.
type regView struct {
	endpoints map[string]*InprocServer
	down      map[string]bool
	// latency, when set, is invoked per call to simulate network
	// delay to dst.
	latency func(dst string) time.Duration
}

// NewRegistry creates an empty in-process network.
func NewRegistry() *Registry {
	r := &Registry{}
	r.view.Store(&regView{endpoints: map[string]*InprocServer{}, down: map[string]bool{}})
	return r
}

// update publishes a copy of the current view after f edits it; f
// clones any map it changes.
func (r *Registry) update(f func(v *regView)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := *r.view.Load()
	f(&v)
	r.view.Store(&v)
}

// SetMetrics points the registry's caller-side instruments
// (zht.transport.calls, bytes) at reg. Call before issuing traffic;
// it is not synchronized with concurrent Calls.
func (r *Registry) SetMetrics(reg *metrics.Registry) {
	r.cmet = newCliMetrics(reg)
}

// SetLatency installs a synthetic per-call latency function (nil to
// disable).
func (r *Registry) SetLatency(f func(dst string) time.Duration) {
	r.update(func(v *regView) { v.latency = f })
}

// SetDown marks an endpoint unreachable (true) or reachable (false),
// simulating a node failure without tearing down its state. It takes
// effect on the next call.
func (r *Registry) SetDown(addr string, down bool) {
	r.update(func(v *regView) {
		v.down = maps.Clone(v.down)
		if down {
			v.down[addr] = true
		} else {
			delete(v.down, addr)
		}
	})
}

// InprocServer is an endpoint in a Registry.
type InprocServer struct {
	reg     *Registry
	addr    string
	handler Handler
	met     srvMetrics
	closed  atomic.Bool
	// active counts handler executions so Close can drain them. A call
	// enters the count and then checks closed; Close sets closed and
	// then waits for the count to reach zero. Whichever check comes
	// second sees the other side's write, so no handler starts once
	// Close has returned.
	active atomic.Int64
}

// Listen registers a new endpoint under addr.
func (r *Registry) Listen(addr string, h Handler, opts ...ServerOption) (*InprocServer, error) {
	s := &InprocServer{reg: r, addr: addr, handler: h, met: serverMetrics(opts)}
	var err error
	r.update(func(v *regView) {
		if _, ok := v.endpoints[addr]; ok {
			err = fmt.Errorf("transport: inproc address %q already bound", addr)
			return
		}
		v.endpoints = maps.Clone(v.endpoints)
		v.endpoints[addr] = s
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Addr returns the endpoint's registered name.
func (s *InprocServer) Addr() string { return s.addr }

// Close unregisters the endpoint and waits for in-flight handlers.
func (s *InprocServer) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.reg.update(func(v *regView) {
		v.endpoints = maps.Clone(v.endpoints)
		delete(v.endpoints, s.addr)
	})
	for s.active.Load() > 0 {
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// enter admits one handler execution, reporting false once Close has
// begun; an admitted execution ends with exit.
func (s *InprocServer) enter() bool {
	s.active.Add(1)
	if s.closed.Load() {
		s.active.Add(-1)
		return false
	}
	return true
}

func (s *InprocServer) exit() { s.active.Add(-1) }

// InprocClient issues calls within a Registry.
type InprocClient struct {
	reg *Registry
}

// NewClient creates a Caller for this registry.
func (r *Registry) NewClient() *InprocClient { return &InprocClient{reg: r} }

// Call implements Caller by direct dispatch. Requests and responses
// are copied across the boundary (wire.CopyRequest, wire.CopyResponse)
// so callers and handlers cannot alias each other's buffers and each
// side sees exactly the message a real transport would deliver. A call
// without a Budget runs the handler on the calling goroutine; one with
// a Budget is Start then Wait.
func (c *InprocClient) Call(addr string, req *wire.Request) (*wire.Response, error) {
	if req.Budget > 0 {
		p := c.Start(addr, req)
		return p.Wait()
	}
	srv, dreq, buf, delay, err := c.send(addr, req, time.Time{})
	if err != nil {
		return nil, err
	}
	return srv.copyOut(srv.serve(dreq, buf, delay), addr, req.Seq)
}

// Start implements Caller: it copies req, as Call does, and runs the
// handler on a goroutine of its own. The budget bounds synthetic
// latency and handler execution: a handler still running at the
// deadline keeps running server-side, but Wait reports ErrTimeout —
// what a datagram client sees when the ack arrives too late.
func (c *InprocClient) Start(addr string, req *wire.Request) Pending {
	deadline := callDeadline(req, 0)
	srv, dreq, buf, delay, err := c.send(addr, req, deadline)
	if err != nil {
		return Pending{err: err}
	}
	p := Pending{srv: srv, addr: addr, seq: req.Seq, deadline: deadline}
	if dreq != nil {
		ch := make(chan *wire.Response, 1)
		go func() { ch <- srv.serve(dreq, buf, delay) }()
		p.ch = ch
	}
	return p
}

// StartBatch implements Caller by starting one OpBatch envelope
// carrying reqs.
func (c *InprocClient) StartBatch(addr string, reqs []*wire.Request) Pending {
	if len(reqs) == 0 {
		return Pending{}
	}
	c.reg.cmet.batches.Inc()
	c.reg.cmet.batchSubs.Observe(int64(len(reqs)))
	env := wire.NewBatchRequest(reqs)
	p := c.Start(addr, env)
	p.req, p.subs = env, len(reqs)
	return p
}

// send finds addr's server and copies req for its handler: a pooled
// struct and buffer, recycled once the handler returns, exactly like a
// decoded TCP frame (byte accounting counts the encoded size). It
// refuses a down or unbound address and a spent budget; a closing
// server is refused by enter instead, as reading closed here too would
// cost a cache miss on the line every core's enter and exit write. It
// reports the call's synthetic latency, and copies nothing when that
// outlasts the deadline: the request lands too late for any handler.
func (c *InprocClient) send(addr string, req *wire.Request, deadline time.Time) (srv *InprocServer, dreq *wire.Request, buf []byte, delay time.Duration, err error) {
	v := c.reg.view.Load()
	srv = v.endpoints[addr]
	if v.down[addr] || srv == nil {
		return nil, nil, nil, 0, fmt.Errorf("%w: inproc %q", ErrUnreachable, addr)
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		return nil, nil, nil, 0, fmt.Errorf("%w: inproc %q: budget exhausted", ErrTimeout, addr)
	}
	if v.latency != nil {
		if delay = v.latency(addr); !deadline.IsZero() && delay >= time.Until(deadline) {
			return srv, nil, nil, delay, nil
		}
	}
	c.reg.cmet.calls.Inc()
	dreq, buf, n, err := wire.CopyRequest(req)
	srv.met.bytesIn.Add(int64(n))
	c.reg.cmet.bytesOut.Add(int64(n))
	return srv, dreq, buf, delay, err
}

// serve runs the handler on a copied request once the synthetic
// latency has passed, and recycles the copy. It returns nil, without
// running the handler, once Close has begun.
func (s *InprocServer) serve(dreq *wire.Request, buf []byte, delay time.Duration) *wire.Response {
	if delay > 0 {
		time.Sleep(delay)
	}
	var resp *wire.Response
	if s.enter() {
		s.met.requests.Inc()
		s.met.inflight.Inc()
		resp = s.handler(dreq)
		s.met.inflight.Dec()
		s.exit()
	}
	wire.PutRequest(dreq)
	wire.PutBuffer(buf)
	return resp
}

// waitInproc collects a call started in process: its handler's
// response arrives on p.ch, which is nil when no handler runs.
func (p *Pending) waitInproc() (*wire.Response, error) {
	var expire <-chan time.Time
	if !p.deadline.IsZero() {
		timer := getTimer(max(time.Until(p.deadline), lateGrace))
		defer putTimer(timer)
		expire = timer.C
	}
	select {
	case resp := <-p.ch:
		return p.srv.copyOut(resp, p.addr, p.seq)
	case <-expire:
		p.abandonInproc()
		return nil, fmt.Errorf("%w: inproc %q: no answer within the budget", ErrTimeout, p.addr)
	}
}

// abandonInproc puts the handler's response back in the pool: at once
// when it has arrived, otherwise from a goroutine that waits for it.
func (p *Pending) abandonInproc() {
	select {
	case resp := <-p.ch:
		wire.PutResponse(resp)
	default:
		if p.ch != nil {
			go func(ch chan *wire.Response) { wire.PutResponse(<-ch) }(p.ch)
		}
	}
}

// copyOut copies a handler response for the caller
// (wire.CopyResponse), stamps the caller's sequence number, and
// accounts the response's encoded size to both sides; a nil response
// (the server was closing) is ErrUnreachable. The handler's response
// is recycled after the copy (the transport owns it; see Handler); the
// caller's copy holds its Value and Table in one allocation of their
// size, which outlives the call like the TCP client's right-sized
// value copy.
func (s *InprocServer) copyOut(resp *wire.Response, addr string, seq uint64) (*wire.Response, error) {
	if resp == nil {
		return nil, fmt.Errorf("%w: inproc %q", ErrUnreachable, addr)
	}
	dresp, n, err := wire.CopyResponse(resp)
	wire.PutResponse(resp)
	s.met.bytesOut.Add(int64(n))
	s.reg.cmet.bytesIn.Add(int64(n))
	if err != nil {
		return nil, err
	}
	dresp.Seq = seq
	return dresp, nil
}

// CallBatch implements Caller by dispatching one OpBatch envelope; the
// copy semantics of Call apply to the whole envelope, whose
// sub-requests and sub-responses travel encoded in its Aux and Value,
// so they are copied exactly as a real transport would copy them.
func (c *InprocClient) CallBatch(addr string, reqs []*wire.Request) ([]*wire.Response, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	c.reg.cmet.batches.Inc()
	c.reg.cmet.batchSubs.Observe(int64(len(reqs)))
	return EnvelopeCallBatch(c, addr, reqs)
}

// Close implements Caller.
func (c *InprocClient) Close() error { return nil }
