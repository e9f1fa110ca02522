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
// side sees exactly the message a real transport would deliver. The
// request's Budget (remaining deadline) bounds synthetic latency and
// handler execution; a handler still running at the deadline keeps
// running server-side, but the caller observes ErrTimeout — matching
// what a datagram client sees when the ack arrives too late.
func (c *InprocClient) Call(addr string, req *wire.Request) (*wire.Response, error) {
	deadline := callDeadline(req, 0)
	v := c.reg.view.Load()
	srv := v.endpoints[addr]
	// A closing server is refused by enter below; reading closed here
	// too would cost a cache miss on the line every core's enter and
	// exit write.
	if v.down[addr] || srv == nil {
		return nil, fmt.Errorf("%w: inproc %q", ErrUnreachable, addr)
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		return nil, fmt.Errorf("%w: inproc %q: budget exhausted", ErrTimeout, addr)
	}
	if v.latency != nil {
		if d := v.latency(addr); d > 0 {
			if !deadline.IsZero() {
				if rem := time.Until(deadline); d >= rem {
					// The request (or its ack) lands past the
					// deadline; the caller observes a timeout.
					time.Sleep(rem)
					return nil, fmt.Errorf("%w: inproc %q", ErrTimeout, addr)
				}
			}
			time.Sleep(d)
		}
	}
	c.reg.cmet.calls.Inc()
	if !srv.enter() {
		return nil, fmt.Errorf("%w: inproc %q", ErrUnreachable, addr)
	}
	srv.met.requests.Inc()
	// The handler's request lives in a pooled struct and buffer, both
	// recycled once the handler returns, exactly like a decoded TCP
	// frame. Byte accounting counts the encoded size.
	dreq, buf, n, err := wire.CopyRequest(req)
	srv.met.bytesIn.Add(int64(n))
	c.reg.cmet.bytesOut.Add(int64(n))
	if err != nil {
		srv.exit()
		return nil, err
	}
	if deadline.IsZero() {
		srv.met.inflight.Inc()
		resp := srv.handler(dreq)
		srv.met.inflight.Dec()
		srv.exit()
		wire.PutRequest(dreq)
		wire.PutBuffer(buf)
		return c.copyResponse(srv, resp, req.Seq)
	}
	done := make(chan *wire.Response, 1)
	go func() {
		srv.met.inflight.Inc()
		resp := srv.handler(dreq)
		srv.met.inflight.Dec()
		srv.exit()
		wire.PutRequest(dreq)
		wire.PutBuffer(buf)
		done <- resp
	}()
	timer := getTimer(time.Until(deadline))
	defer putTimer(timer)
	select {
	case resp := <-done:
		return c.copyResponse(srv, resp, req.Seq)
	case <-timer.C:
		return nil, fmt.Errorf("%w: inproc %q: handler exceeded budget", ErrTimeout, addr)
	}
}

// copyResponse copies a handler response for the caller
// (wire.CopyResponse), stamps the caller's sequence number, and
// accounts the response's encoded size to both sides. The handler's
// response is recycled after the copy (the transport owns it; see
// Handler); the caller's copy holds its Value and Table in one
// allocation of their size, which outlives the call like the TCP
// client's right-sized value copy.
func (c *InprocClient) copyResponse(srv *InprocServer, resp *wire.Response, seq uint64) (*wire.Response, error) {
	dresp, n, err := wire.CopyResponse(resp)
	wire.PutResponse(resp)
	srv.met.bytesOut.Add(int64(n))
	c.reg.cmet.bytesIn.Add(int64(n))
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
