// Package transport provides ZHT's 1-to-1 communication layer
// (paper §III.F "Lightweight 1-1 Communication").
//
// Three interchangeable transports implement the same Caller/listener
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
package transport

import (
	"errors"

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
// encoding: handlers must return a response they exclusively own —
// freshly built or pool-drawn, never shared between calls — and its
// fields must not alias request memory.
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
	if err != nil {
		return nil, err
	}
	rs, err := wire.UnpackBatchResponses(resp, len(reqs))
	if err != nil {
		return nil, err
	}
	// The sub-responses carry (or alias) everything the caller needs;
	// the envelope struct itself can go back to the pool. Its Value
	// backing stays alive through the sub-response aliases.
	wire.PutResponse(resp)
	return rs, nil
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
