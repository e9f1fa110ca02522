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

// Call implements Caller: send, await the matching ack, retransmit on
// timeout. Retransmission stops at the request's remaining budget
// (wire.Request.Budget) even when attempts remain.
func (c *UDPClient) Call(addr string, req *wire.Request) (*wire.Response, error) {
	c.met.calls.Inc()
	r := *req
	r.Seq = c.seq.Add(1)
	out := wire.EncodeRequest(wire.GetBuffer(), &r)
	defer func() { wire.PutBuffer(out) }()
	if len(out) > maxDatagram {
		return nil, fmt.Errorf("transport: request of %d bytes exceeds datagram limit", len(out))
	}
	deadline := callDeadline(req, 0)
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		return nil, fmt.Errorf("%w: budget exhausted before send", ErrTimeout)
	}
	conn, err := c.getSock(addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	// Datagram receive buffer: pooled, full datagram capacity.
	buf := getFrameBuf()
	if cap(buf) < maxDatagram {
		buf = make([]byte, maxDatagram)
	}
	buf = buf[:maxDatagram]
	defer func() { putFrameBuf(buf) }()
	for a := 0; a <= c.retries; a++ {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			c.putSock(addr, conn)
			return nil, ErrTimeout
		}
		if a > 0 {
			c.met.retransmits.Inc()
		}
		c.met.bytesOut.Add(int64(len(out)))
		if _, err := conn.Write(out); err != nil {
			conn.Close()
			return nil, fmt.Errorf("%w: %v", ErrUnreachable, err)
		}
		attemptDeadline := time.Now().Add(c.opts.Timeout)
		if !deadline.IsZero() && deadline.Before(attemptDeadline) {
			attemptDeadline = deadline
		}
		conn.SetReadDeadline(attemptDeadline)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					break // retransmit
				}
				conn.Close()
				return nil, fmt.Errorf("%w: %v", ErrUnreachable, err)
			}
			c.met.bytesIn.Add(int64(n))
			resp, derr := wire.DecodeResponsePooled(buf[:n])
			if derr != nil || resp.Seq != r.Seq {
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
			c.putSock(addr, conn)
			return resp, nil
		}
	}
	c.putSock(addr, conn)
	return nil, ErrTimeout
}

// CallBatch implements Caller by packing sub-requests into OpBatch
// envelopes, splitting at the datagram budget: each chunk is sized so
// its encoded envelope fits in maxDatagram. Chunks are issued
// sequentially; an error fails the remainder of the batch (retriable,
// like Call — earlier chunks may have executed).
func (c *UDPClient) CallBatch(addr string, reqs []*wire.Request) ([]*wire.Response, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	c.met.batches.Inc()
	c.met.batchSubs.Observe(int64(len(reqs)))
	// Reserve headroom for the envelope header and the per-item count
	// and length prefixes.
	const slack = 64
	out := make([]*wire.Response, 0, len(reqs))
	var chunk []*wire.Request
	size := 0
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		rs, err := EnvelopeCallBatch(c, addr, chunk)
		if err != nil {
			return err
		}
		out = append(out, rs...)
		chunk = nil
		size = 0
		return nil
	}
	scratch := wire.GetBuffer()
	defer func() { wire.PutBuffer(scratch) }()
	for _, r := range reqs {
		scratch = wire.EncodeRequest(scratch[:0], r)
		n := len(scratch) + binary.MaxVarintLen64
		if n+slack > maxDatagram {
			return nil, fmt.Errorf("transport: batched request of %d bytes exceeds datagram limit", len(scratch))
		}
		if size+n+slack > maxDatagram {
			if err := flush(); err != nil {
				return nil, err
			}
		}
		chunk = append(chunk, r)
		size += n
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return out, nil
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
