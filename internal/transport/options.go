package transport

import (
	"errors"
	"net"
	"time"

	"zht/internal/metrics"
	"zht/internal/wire"
)

// serverOptions is what a ServerOption list sets on a server.
type serverOptions struct {
	// reg, when non-nil, receives the server-side instruments
	// (zht.server.* — requests, in-flight gauge, bytes, connection
	// counts). Nil disables them.
	reg *metrics.Registry
}

// ServerOption configures a server (variadic-option pattern so the
// Listen constructors keep their signatures).
type ServerOption func(*serverOptions)

// WithServerMetrics points the server's instruments at reg.
func WithServerMetrics(reg *metrics.Registry) ServerOption {
	return func(o *serverOptions) { o.reg = reg }
}

// serverMetrics applies an option list to the zero serverOptions and
// builds the server's instruments from the result.
func serverMetrics(opts []ServerOption) srvMetrics {
	var o serverOptions
	for _, f := range opts {
		f(&o)
	}
	return newSrvMetrics(o.reg)
}

// srvMetrics is the per-server instrument set, shared by the TCP,
// UDP, and in-process servers. All fields are nil (no-op) when
// metrics are disabled; servers on one registry aggregate.
type srvMetrics struct {
	requests *metrics.Counter // zht.server.requests
	inflight *metrics.Gauge   // zht.server.inflight
	bytesIn  *metrics.Counter // zht.server.bytes_in
	bytesOut *metrics.Counter // zht.server.bytes_out
	conns    *metrics.Gauge   // zht.server.conns
}

func newSrvMetrics(reg *metrics.Registry) srvMetrics {
	return srvMetrics{
		requests: reg.Counter("zht.server.requests"),
		inflight: reg.Gauge("zht.server.inflight"),
		bytesIn:  reg.Counter("zht.server.bytes_in"),
		bytesOut: reg.Counter("zht.server.bytes_out"),
		conns:    reg.Gauge("zht.server.conns"),
	}
}

// cliMetrics is the caller-side instrument set shared by the TCP,
// UDP, and in-process clients. All fields are nil (no-op) when
// metrics are disabled.
type cliMetrics struct {
	calls       *metrics.Counter   // zht.transport.calls
	dials       *metrics.Counter   // zht.transport.dials
	cachedHits  *metrics.Counter   // zht.transport.cached_conns
	retransmits *metrics.Counter   // zht.transport.retransmits
	bytesIn     *metrics.Counter   // zht.transport.bytes_in
	bytesOut    *metrics.Counter   // zht.transport.bytes_out
	muxInflight *metrics.Gauge     // zht.transport.mux.inflight
	batches     *metrics.Counter   // zht.transport.batches
	batchSubs   *metrics.Histogram // zht.transport.batch.subs
}

func newCliMetrics(reg *metrics.Registry) cliMetrics {
	return cliMetrics{
		calls:       reg.Counter("zht.transport.calls"),
		dials:       reg.Counter("zht.transport.dials"),
		cachedHits:  reg.Counter("zht.transport.cached_conns"),
		retransmits: reg.Counter("zht.transport.retransmits"),
		bytesIn:     reg.Counter("zht.transport.bytes_in"),
		bytesOut:    reg.Counter("zht.transport.bytes_out"),
		muxInflight: reg.Gauge("zht.transport.mux.inflight"),
		batches:     reg.Counter("zht.transport.batches"),
		batchSubs:   reg.Histogram("zht.transport.batch.subs"),
	}
}

// classify maps a low-level network error into the transport error
// taxonomy: deadline-style failures become ErrTimeout, everything
// else ErrUnreachable. Keeping the mapping in one place makes the
// taxonomy consistent across TCP, UDP, and in-process callers, which
// the client's failure detector depends on.
func classify(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return ErrTimeout
	}
	return ErrUnreachable
}

// callDeadline resolves the absolute deadline for one call: the
// transport's own timeout bound by the request's remaining budget
// (wire.Request.Budget), whichever expires first. A zero transport
// timeout means the budget alone governs; no budget and no timeout
// yields a zero time (no deadline).
func callDeadline(req *wire.Request, timeout time.Duration) time.Time {
	var d time.Time
	if timeout > 0 {
		d = time.Now().Add(timeout)
	}
	if req.Budget > 0 {
		b := time.Now().Add(time.Duration(req.Budget))
		if d.IsZero() || b.Before(d) {
			d = b
		}
	}
	return d
}
