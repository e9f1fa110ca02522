// Package transport provides ZHT's 1-to-1 communication layer
// (paper §III.F "Lightweight 1-1 Communication").
//
// Four interchangeable transports implement the same Caller/listener
// contract:
//
//   - TCP with an LRU connection cache, "which makes TCP work almost
//     as fast as UDP does" (the paper's preferred configuration);
//     callers do their own socket I/O on the cached connections, so
//     a round trip wakes no goroutine but the peer's;
//   - TCP without connection caching (a dial per request — the
//     baseline the paper measures the cache against);
//   - UDP, acknowledge-message based: every request datagram is
//     answered by a response datagram, with timeout-driven
//     retransmission;
//   - an in-process transport used to deploy hundreds of instances
//     inside one OS process for tests and scale benchmarks, with
//     hooks for failure injection.
//
// Servers come in two architectures mirroring the paper's §III.D
// ablation: the event-driven model (the production choice, analogous
// to the epoll server — Go's netpoller is epoll underneath) and a
// spawn-per-request model (the discarded multithreaded prototype).
//
// A caller that fans one operation out to several servers does not
// need a goroutine per server either: Start and StartBatch split a
// call into its send and its receive (see Starter and Pending). On
// TCP the calling goroutine writes every frame, then awaits the
// answers one by one under each connection's read role, so the
// fan-out costs its round trips in parallel and wakes nobody.
// Transports without a split-phase call get one goroutine per started
// call instead.
package transport

import (
	"errors"
	"time"

	"zht/internal/wire"
)

// Handler processes one request and returns its response. Handlers
// must be safe for concurrent use.
//
// Where it runs: on TCP, on the goroutine that read the request off
// the connection — nothing else is read from that connection until the
// handler returns. A handler must therefore call req.Detach(), from
// the goroutine it was called on, before it blocks (sleeps, waits for
// a lock or channel another request releases) or calls out through a
// Caller: Detach moves the connection's reading elsewhere first.
// Skipping it stalls the connection, and two servers calling each
// other from undetached handlers can deadlock. Detach is a no-op on
// transports that already run every handler on its own goroutine.
//
// Buffer ownership (DESIGN.md §11): the request, its Key/Value/Aux,
// and the frame they alias belong to the transport and are recycled
// the moment the handler returns — a handler that retains any of
// them must copy. The returned response transfers to the transport,
// which recycles it (and any wire.SetPooledValue scratch) after
// encoding it (in process, after copying it): handlers must return a
// response they exclusively own — freshly built or pool-drawn, never
// shared between calls — and its fields must not alias request memory.
type Handler func(req *wire.Request) *wire.Response

// Caller issues requests to remote instances. Implementations must be
// safe for concurrent use.
type Caller interface {
	// Call sends req to addr and returns the response.
	Call(addr string, req *wire.Request) (*wire.Response, error)
	// CallBatch sends reqs to addr as one batched message (or as few
	// as the transport's message size budget allows) and returns
	// exactly len(reqs) sub-responses in request order. When the
	// server answers with a message-level verdict instead of a batch
	// payload (StatusBusy shed, batch-unaware handler), that verdict
	// is fanned out to every sub-response. An error means the whole
	// batch failed in transit and is retriable like a failed Call.
	// The sub-responses live in one wire.Slab: the caller releases
	// them with wire.ReleaseResponses (or leaves them to the GC).
	CallBatch(addr string, reqs []*wire.Request) ([]*wire.Response, error)
	// Close releases client resources (cached connections).
	Close() error
}

// EnvelopeCallBatch implements CallBatch for any transport whose
// message size is unconstrained: it packs the sub-requests into one
// wire.OpBatch envelope, issues it as a single Call, and unpacks the
// sub-responses. Transports with a message size budget (UDP) split
// batches themselves instead.
func EnvelopeCallBatch(c Caller, addr string, reqs []*wire.Request) ([]*wire.Response, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	env := wire.NewBatchRequest(reqs)
	resp, err := c.Call(addr, env)
	wire.ReleaseBatchRequest(env)
	return unpackEnvelope(resp, err, len(reqs))
}

// unpackEnvelope turns an envelope call's outcome into its n
// sub-responses.
func unpackEnvelope(resp *wire.Response, err error, n int) ([]*wire.Response, error) {
	if err != nil {
		return nil, err
	}
	rs, err := wire.UnpackBatchResponses(resp, n)
	if err != nil {
		return nil, err
	}
	// The sub-responses carry (or alias) everything the caller needs;
	// the envelope struct itself can go back to the pool. Its Value
	// backing stays alive through the sub-response aliases.
	wire.PutResponse(resp)
	return rs, nil
}

// Starter is implemented by callers that can split a call into its
// send and its receive, so one goroutine can have several calls in
// flight at once. Use it through the package functions Start and
// StartBatch, which fall back to a goroutine per call for callers
// without it.
//
// Contract: Start sends req to addr (StartBatch sends reqs as one
// batched message) and returns at once with the call outstanding.
// Every Start is followed by exactly one Pending.Wait — WaitBatch for
// StartBatch — or Pending.Abandon. Until then the caller must leave
// req (every element of reqs) untouched: a call that fails on its
// connection is sent again from it. Wait returns what Call (CallBatch)
// would have, under the same deadline, retry and error rules — except
// that a Wait begun at or after the call's deadline still collects a
// response that has already arrived (it reads for a short grace)
// instead of timing out at once, so calls awaited in turn under one
// deadline do not lose answers to a slow call awaited first. Abandon
// retires the call: its response, should one still arrive, is dropped
// unseen, as a timed-out call's is.
type Starter interface {
	Start(addr string, req *wire.Request) Pending
	StartBatch(addr string, reqs []*wire.Request) Pending
}

// Pending is one started call (see Starter). It is returned and kept
// by value — on TCP starting a call allocates nothing — and is waited
// or abandoned through one copy only.
type Pending struct {
	// The native TCP call: its client, the connection it went out on
	// (nil when none could be had, with err saying why) and its
	// registration there.
	tcp      *TCPClient
	mc       *muxConn
	addr     string
	req      *wire.Request // the request as sent: the batch envelope for StartBatch
	seq      uint64
	ch       chan *wire.Response // nil when the call never registered
	deadline time.Time
	fresh    bool  // sent on a fresh dial: no retry left
	err      error // the send failed
	subs     int   // sub-requests in req, for StartBatch

	// done receives the outcome of a call running on its own
	// goroutine, for callers without Starter.
	done chan callResult
}

type callResult struct {
	resp  *wire.Response
	resps []*wire.Response
	err   error
}

// Start starts one call to addr on c: natively when c implements
// Starter, otherwise by running c.Call on a goroutine of its own.
func Start(c Caller, addr string, req *wire.Request) Pending {
	if s, ok := c.(Starter); ok {
		return s.Start(addr, req)
	}
	r := *req // an abandoned call outlives the caller's hold on req
	done := make(chan callResult, 1)
	go func() {
		resp, err := c.Call(addr, &r)
		done <- callResult{resp: resp, err: err}
	}()
	return Pending{done: done}
}

// StartBatch starts one batched call to addr on c: natively when c
// implements Starter, otherwise by running c.CallBatch on a goroutine
// of its own.
func StartBatch(c Caller, addr string, reqs []*wire.Request) Pending {
	if len(reqs) == 0 {
		return Pending{}
	}
	if s, ok := c.(Starter); ok {
		return s.StartBatch(addr, reqs)
	}
	// Copies, as in Start: the goroutine may outlive an Abandon.
	vals := make([]wire.Request, len(reqs))
	cp := make([]*wire.Request, len(reqs))
	for i, r := range reqs {
		vals[i] = *r
		cp[i] = &vals[i]
	}
	done := make(chan callResult, 1)
	go func() {
		rs, err := c.CallBatch(addr, cp)
		done <- callResult{resps: rs, err: err}
	}()
	return Pending{done: done}
}

// Wait collects the response of a call begun with Start.
func (p *Pending) Wait() (*wire.Response, error) {
	if p.done != nil {
		r := <-p.done
		p.done = nil
		return r.resp, r.err
	}
	return p.waitTCP()
}

// WaitBatch collects the sub-responses of a call begun with
// StartBatch, exactly len(reqs) of them in request order.
func (p *Pending) WaitBatch() ([]*wire.Response, error) {
	if p.done != nil {
		r := <-p.done
		p.done = nil
		return r.resps, r.err
	}
	if p.subs == 0 {
		return nil, nil
	}
	n := p.subs
	resp, err := p.waitTCP()
	wire.ReleaseBatchRequest(p.req)
	p.req, p.subs = nil, 0
	return unpackEnvelope(resp, err, n)
}

// Abandon gives up on a started call without waiting for it.
func (p *Pending) Abandon() {
	if p.done != nil {
		p.done = nil // the goroutine finishes alone; its result is dropped
		return
	}
	p.abandonTCP()
	if p.subs > 0 {
		wire.ReleaseBatchRequest(p.req)
		p.req, p.subs = nil, 0
	}
}

// Listener is a running server endpoint.
type Listener interface {
	// Addr returns the address clients should dial.
	Addr() string
	// Close stops serving.
	Close() error
}

// ServerMode selects the request dispatch architecture (§III.D).
type ServerMode int

const (
	// EventDriven handles requests inline on the connection's reader
	// goroutine, which also writes the response — the streamlined
	// architecture the paper converged on (its epoll server; 3x
	// faster than the multithread design). See Handler for what that
	// asks of handlers.
	EventDriven ServerMode = iota
	// SpawnPerRequest creates a fresh goroutine per request with a
	// synchronized handoff, reproducing the overhead profile of the
	// discarded thread-per-request prototype.
	SpawnPerRequest
)

// ErrTimeout reports that a request exceeded its deadline (including
// all retransmissions for UDP).
var ErrTimeout = errors.New("transport: request timed out")

// ErrUnreachable reports that the destination could not be contacted.
var ErrUnreachable = errors.New("transport: destination unreachable")
