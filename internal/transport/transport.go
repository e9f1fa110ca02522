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
// need a goroutine per server either: every Caller splits a call into
// its send (Start, StartBatch) and its receive (Pending.Wait), under
// one contract written on Pending. On TCP the calling goroutine writes
// every frame, then awaits the answers one by one under each
// connection's read role, so the fan-out costs its round trips in
// parallel and wakes nobody.
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
	// Start sends req to addr and returns at once with the call
	// outstanding, so one goroutine can have several calls in flight;
	// StartBatch does the same for reqs as one batched message (see
	// Pending for what the caller owes a started call). An empty reqs
	// starts nothing: its WaitBatch returns nil, nil.
	Start(addr string, req *wire.Request) Pending
	StartBatch(addr string, reqs []*wire.Request) Pending
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

// Pending is one started call (Caller.Start, Caller.StartBatch). It is
// returned and kept by value — on TCP starting a call allocates
// nothing — and is waited or abandoned through one copy only.
//
// Contract, the same on every transport: Start has sent the request
// (StartBatch, reqs as one batched message) and returned with the call
// outstanding. Every Start is followed by exactly one Wait — WaitBatch
// for StartBatch — or Abandon. Until then the caller must leave req
// (every element of reqs) untouched: a call that fails on its
// connection is sent again from it. Wait returns what Call (CallBatch)
// would have, under the same deadline, retry and error rules — except
// that a Wait begun at or after the call's deadline still collects a
// response that has already arrived (it reads for a short grace)
// instead of timing out at once, so calls awaited in turn under one
// deadline do not lose answers to a slow call awaited first. Abandon
// retires the call: its response, should one still arrive, goes back
// to the wire pools unseen, as a timed-out call's does, and one
// already delivered goes back at once. A failure known at Start
// (unreachable, budget already spent) is kept for Wait.
type Pending struct {
	// A TCP call: its client, the connection it went out on (nil when
	// none could be had, with err saying why) and its registration
	// there.
	tcp      *TCPClient
	mc       *muxConn
	addr     string
	req      *wire.Request // the request as sent: the batch envelope for StartBatch
	seq      uint64
	ch       chan *wire.Response // nil when the call never registered
	deadline time.Time
	fresh    bool  // sent on a fresh dial: no retry left
	err      error // the call failed before it could be awaited
	subs     int   // sub-requests in req, for StartBatch

	// srv is the server of a call started in process, whose handler's
	// response arrives on ch; addr, seq and deadline are the call's.
	srv *InprocServer

	// leg is the receive half of a UDP call, or of a settled or
	// wrapped one (Settled, Then); nil on TCP and in process.
	leg leg
}

// leg is the receive half of a started call that is neither a TCP
// nor an in-process one. Exactly one of wait and abandon is called.
type leg interface {
	wait() Outcome
	abandon()
}

// Outcome is what a started call yields: Resp for Wait, Resps for
// WaitBatch, and the error either returns.
type Outcome struct {
	Resp  *wire.Response
	Resps []*wire.Response
	Err   error
}

// Release returns o's responses to the wire pools.
func (o Outcome) Release() {
	wire.PutResponse(o.Resp)
	wire.ReleaseResponses(o.Resps)
}

// settled is a call that was over before Start returned.
type settled Outcome

func (s *settled) wait() Outcome { return Outcome(*s) }
func (s *settled) abandon()      { Outcome(*s).Release() }

// Settled returns a started call that is already over: Wait returns
// resp and err, and Abandon puts resp back in the wire pools. A caller
// that cannot split a call starts it with Settled(c.Call(addr, req)).
func Settled(resp *wire.Response, err error) Pending {
	return Pending{leg: &settled{Resp: resp, Err: err}}
}

// SettledBatch is Settled for StartBatch: WaitBatch returns resps and
// err.
func SettledBatch(resps []*wire.Response, err error) Pending {
	return Pending{leg: &settled{Resps: resps, Err: err}}
}

// then is a started call that f collects at Wait.
type then struct {
	p Pending
	f func(*Pending) Outcome
}

func (t *then) wait() Outcome { return t.f(&t.p) }
func (t *then) abandon()      { t.p.Abandon() }

// Then returns a started call whose Wait (WaitBatch) hands p to f, on
// the waiting goroutine, and returns what f yields. It is how a
// wrapping Caller acts on a started call's answer without a goroutine
// of its own. f waits for p itself (Settled(nil, nil) holds nothing
// and may be left unwaited) and owns what p yields: what it does not
// return, it releases. Abandon abandons p and never calls f.
func Then(p Pending, f func(*Pending) Outcome) Pending {
	return Pending{leg: &then{p: p, f: f}}
}

// Wait collects the response of a call begun with Start.
func (p *Pending) Wait() (*wire.Response, error) {
	if l := p.leg; l != nil {
		p.leg = nil
		o := l.wait()
		return o.Resp, o.Err
	}
	if p.srv != nil {
		return p.waitInproc()
	}
	return p.waitTCP()
}

// WaitBatch collects the sub-responses of a call begun with
// StartBatch, exactly len(reqs) of them in request order.
func (p *Pending) WaitBatch() ([]*wire.Response, error) {
	if p.subs == 0 {
		if l := p.leg; l != nil {
			p.leg = nil
			o := l.wait()
			return o.Resps, o.Err
		}
		return nil, p.err // an empty batch, or one that failed at Start
	}
	n := p.subs
	resp, err := p.Wait()
	wire.ReleaseBatchRequest(p.req)
	p.req, p.subs = nil, 0
	return unpackEnvelope(resp, err, n)
}

// Abandon gives up on a started call without waiting for it.
func (p *Pending) Abandon() {
	switch l := p.leg; {
	case l != nil:
		p.leg = nil
		l.abandon()
	case p.srv != nil:
		p.abandonInproc()
	default:
		p.abandonTCP()
	}
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
