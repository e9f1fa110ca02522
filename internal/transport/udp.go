package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"zht/internal/metrics"
	"zht/internal/wire"
)

// UDP transport: acknowledge-message based (§III.F) — every request
// datagram is answered by a response datagram; the sender retransmits
// on timeout. Connectionless communication avoids the connection
// establishment cost that motivates the paper's interest in UDP at
// extreme scales.

// maxDatagram bounds UDP message size. ZHT's micro-benchmark payloads
// (15 B keys, 132 B values) fit trivially; larger values should use
// TCP.
const maxDatagram = 60 * 1024

// UDPServer serves ZHT requests over UDP.
type UDPServer struct {
	pc      *net.UDPConn
	handler Handler
	met     srvMetrics
	wg      sync.WaitGroup
	closed  atomic.Bool
}

// ListenUDP starts a UDP server on addr (":0" for ephemeral).
func ListenUDP(addr string, h Handler, opts ...ServerOption) (*UDPServer, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	pc, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	s := &UDPServer{pc: pc, handler: h, met: serverMetrics(opts)}
	s.wg.Add(1)
	go s.loop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *UDPServer) Addr() string { return s.pc.LocalAddr().String() }

// udpWorkers bounds concurrent handler executions per server. The
// read loop itself stays single-threaded (event-driven), but handlers
// run off-loop: a ZHT handler may issue nested server-to-server RPCs
// (replication, migration), and two servers handling each other's
// requests inline would deadlock until their clients' retransmission
// timeouts fired.
const udpWorkers = 256

func (s *UDPServer) loop() {
	defer s.wg.Done()
	sem := make(chan struct{}, udpWorkers)
	buf := make([]byte, maxDatagram)
	for {
		n, from, err := s.pc.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		s.met.bytesIn.Add(int64(n))
		req, err := wire.DecodeRequestPooled(buf[:n])
		if err != nil {
			continue // drop malformed datagrams
		}
		s.met.requests.Inc()
		// The decoded request aliases buf, which the read loop reuses
		// for the next datagram: move Value/Aux into one pooled
		// scratch buffer that lives exactly as long as the handler.
		var scratch []byte
		if len(req.Value)+len(req.Aux) > 0 {
			scratch = getFrameBuf()
			lv := len(req.Value)
			scratch = append(scratch, req.Value...)
			scratch = append(scratch, req.Aux...)
			if lv > 0 {
				req.Value = scratch[:lv]
			}
			if len(req.Aux) > 0 {
				req.Aux = scratch[lv:]
			}
		}
		dst := *from
		sem <- struct{}{}
		s.wg.Add(1)
		go func(req *wire.Request, scratch []byte) {
			defer s.wg.Done()
			defer func() { <-sem }()
			s.met.inflight.Inc()
			resp := s.handler(req)
			s.met.inflight.Dec()
			resp.Seq = req.Seq
			wire.PutRequest(req)
			putFrameBuf(scratch)
			out := wire.EncodeResponse(wire.GetBuffer(), resp)
			if len(out) > maxDatagram {
				out = wire.EncodeResponse(out[:0], &wire.Response{
					Status: wire.StatusError, Seq: resp.Seq,
					Err: "transport: response exceeds datagram limit",
				})
			}
			wire.PutResponse(resp)
			s.met.bytesOut.Add(int64(len(out)))
			s.pc.WriteToUDP(out, &dst)
			wire.PutBuffer(out)
		}(req, scratch)
	}
}

// Close stops the server.
func (s *UDPServer) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	err := s.pc.Close()
	s.wg.Wait()
	return err
}

// UDPClientOptions configures a UDP client.
type UDPClientOptions struct {
	// Timeout is the per-attempt ack deadline. 0 means
	// DefaultUDPTimeout.
	Timeout time.Duration
	// Metrics, when non-nil, receives the caller-side instruments
	// (zht.transport.* — calls, retransmits, bytes).
	Metrics *metrics.Registry
}

// DefaultUDPTimeout is the per-attempt ack deadline when
// UDPClientOptions.Timeout is 0.
const DefaultUDPTimeout = 500 * time.Millisecond

// udpRetries is the number of retransmissions after the first attempt
// (in-package tests lower it on a fresh client).
const udpRetries = 3

// UDPClient issues acknowledge-based UDP requests.
type UDPClient struct {
	opts    UDPClientOptions
	met     cliMetrics
	retries int // retransmissions after the first attempt
	seq     atomic.Uint64

	mu     sync.Mutex
	socks  map[string][]*net.UDPConn // idle sockets per destination
	closed bool
}

// NewUDPClient creates a client.
func NewUDPClient(opts UDPClientOptions) *UDPClient {
	if opts.Timeout == 0 {
		opts.Timeout = DefaultUDPTimeout
	}
	return &UDPClient{opts: opts, met: newCliMetrics(opts.Metrics), retries: udpRetries, socks: make(map[string][]*net.UDPConn)}
}

// Call implements Caller: Start, then Wait.
func (c *UDPClient) Call(addr string, req *wire.Request) (*wire.Response, error) {
	p := c.Start(addr, req)
	return p.Wait()
}

// CallBatch implements Caller: StartBatch, then WaitBatch.
func (c *UDPClient) CallBatch(addr string, reqs []*wire.Request) ([]*wire.Response, error) {
	p := c.StartBatch(addr, reqs)
	return p.WaitBatch()
}

// Start implements Caller: it writes the request datagram. Wait awaits
// the matching ack and retransmits on timeout, until the attempts or
// the request's remaining budget (wire.Request.Budget) run out.
func (c *UDPClient) Start(addr string, req *wire.Request) Pending {
	c.met.calls.Inc()
	l := &udpCall{c: c, addr: addr, seq: c.seq.Add(1), deadline: callDeadline(req, 0)}
	r := *req
	r.Seq = l.seq
	l.out = wire.EncodeRequest(wire.GetBuffer(), &r)
	var err error
	switch {
	case len(l.out) > maxDatagram:
		err = fmt.Errorf("transport: request of %d bytes exceeds datagram limit", len(l.out))
	case !l.deadline.IsZero() && !time.Now().Before(l.deadline):
		err = fmt.Errorf("%w: budget exhausted before send", ErrTimeout)
	default:
		if l.conn, err = c.getSock(addr); err == nil {
			if err = l.send(); err == nil {
				return Pending{leg: l}
			}
			return Pending{err: err}
		}
		err = fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	wire.PutBuffer(l.out)
	return Pending{err: err}
}

// StartBatch implements Caller by packing sub-requests into OpBatch
// envelopes, each sized to fit in one datagram. A batch that fits in
// one is started like any call; a larger one is sent chunk after chunk,
// each awaited in turn, before StartBatch returns. An error fails the
// remainder of the batch (retriable, like Call — earlier chunks may
// have executed).
func (c *UDPClient) StartBatch(addr string, reqs []*wire.Request) Pending {
	if len(reqs) == 0 {
		return Pending{}
	}
	c.met.batches.Inc()
	c.met.batchSubs.Observe(int64(len(reqs)))
	// Reserve headroom for the envelope header and the per-item count
	// and length prefixes.
	const slack = 64
	var chunks [][]*wire.Request
	lo, size := 0, 0
	scratch := wire.GetBuffer()
	for i, r := range reqs {
		scratch = wire.EncodeRequest(scratch[:0], r)
		n := len(scratch) + binary.MaxVarintLen64
		if n+slack > maxDatagram {
			wire.PutBuffer(scratch)
			return Pending{err: fmt.Errorf("transport: batched request of %d bytes exceeds datagram limit", len(scratch))}
		}
		if size+n+slack > maxDatagram {
			chunks, lo, size = append(chunks, reqs[lo:i]), i, 0
		}
		size += n
	}
	wire.PutBuffer(scratch)
	if len(chunks) == 0 {
		env := wire.NewBatchRequest(reqs)
		p := c.Start(addr, env)
		p.req, p.subs = env, len(reqs)
		return p
	}
	var out []*wire.Response
	for _, chunk := range append(chunks, reqs[lo:]) {
		rs, err := EnvelopeCallBatch(c, addr, chunk)
		if err != nil {
			wire.ReleaseResponses(out)
			return Pending{err: err}
		}
		out = append(out, rs...)
	}
	return SettledBatch(out, nil)
}

// udpCall is a request datagram awaiting its ack on a socket of its own.
type udpCall struct {
	c        *UDPClient
	addr     string
	conn     *net.UDPConn
	out      []byte // the encoded request, pooled
	seq      uint64
	deadline time.Time
	sent     time.Time // the last attempt's write
}

// send writes one attempt of the request; a failed write ends the call.
func (l *udpCall) send() error {
	l.c.met.bytesOut.Add(int64(len(l.out)))
	l.sent = time.Now()
	if _, err := l.conn.Write(l.out); err != nil {
		l.conn.Close()
		wire.PutBuffer(l.out)
		return fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	return nil
}

// abandon gives the socket back: an ack still to come is a stale
// datagram to the next call on it, which drops it by its sequence ID.
func (l *udpCall) abandon() {
	wire.PutBuffer(l.out)
	l.c.putSock(l.addr, l.conn)
}

// wait reads until the ack matching l.seq arrives, retransmitting each
// time an attempt's timeout, counted from its write, passes; the first
// read lasts at least lateGrace (see Pending).
func (l *udpCall) wait() (o Outcome) {
	c := l.c
	// Datagram receive buffer: pooled, full datagram capacity.
	buf := getFrameBuf()
	if cap(buf) < maxDatagram {
		buf = make([]byte, maxDatagram)
	}
	buf = buf[:maxDatagram]
	defer func() { putFrameBuf(buf) }()
	for a := 0; ; a++ {
		readBy := l.sent.Add(c.opts.Timeout)
		if !l.deadline.IsZero() && l.deadline.Before(readBy) {
			readBy = l.deadline
		}
		if late := time.Now().Add(lateGrace); a == 0 && readBy.Before(late) {
			readBy = late
		}
		l.conn.SetReadDeadline(readBy)
		for {
			n, err := l.conn.Read(buf)
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					break // retransmit
				}
				l.conn.Close()
				wire.PutBuffer(l.out)
				o.Err = fmt.Errorf("%w: %v", ErrUnreachable, err)
				return o
			}
			c.met.bytesIn.Add(int64(n))
			resp, derr := wire.DecodeResponsePooled(buf[:n])
			if derr != nil || resp.Seq != l.seq {
				if derr == nil {
					wire.PutResponse(resp)
				}
				continue // stray or stale datagram; keep waiting
			}
			// Copy fields that alias buf before reuse.
			resp.Value = append([]byte(nil), resp.Value...)
			resp.Table = append([]byte(nil), resp.Table...)
			if len(resp.Value) == 0 {
				resp.Value = nil
			}
			if len(resp.Table) == 0 {
				resp.Table = nil
			}
			l.abandon()
			o.Resp = resp
			return o
		}
		if a == c.retries || !l.deadline.IsZero() && !time.Now().Before(l.deadline) {
			l.abandon()
			o.Err = ErrTimeout
			return o
		}
		c.met.retransmits.Inc()
		if o.Err = l.send(); o.Err != nil {
			return o
		}
	}
}

func (c *UDPClient) getSock(addr string) (*net.UDPConn, error) {
	c.mu.Lock()
	if ss := c.socks[addr]; len(ss) > 0 {
		s := ss[len(ss)-1]
		c.socks[addr] = ss[:len(ss)-1]
		c.mu.Unlock()
		return s, nil
	}
	c.mu.Unlock()
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	return net.DialUDP("udp", nil, ua)
}

func (c *UDPClient) putSock(addr string, s *net.UDPConn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || len(c.socks[addr]) >= 16 {
		s.Close()
		return
	}
	c.socks[addr] = append(c.socks[addr], s)
}

// Close releases pooled sockets.
func (c *UDPClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, ss := range c.socks {
		for _, s := range ss {
			s.Close()
		}
	}
	c.socks = make(map[string][]*net.UDPConn)
	return nil
}
