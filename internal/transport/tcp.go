package transport

import (
	"bufio"
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"zht/internal/metrics"
	"zht/internal/wire"
)

// Frame format on TCP: uvarint length followed by the encoded message.
const (
	maxFrame = 128 << 20
	// frameGrowStart is the most a frame header can make readFrame
	// allocate before any payload byte has arrived.
	frameGrowStart = 64 << 10
	ioBufSize      = 64 << 10
)

// writeFrameNoFlush stages a frame into the buffered writer without
// flushing, letting concurrent writers amortize one flush across a
// burst of frames.
func writeFrameNoFlush(w *bufio.Writer, payload []byte) error {
	// The uvarint length goes out byte-by-byte: a local header array
	// passed to Write escapes to the heap (the writer may hand the
	// slice to its underlying io.Writer), costing an allocation per
	// frame on the hot path.
	n := uint64(len(payload))
	for n >= 0x80 {
		if err := w.WriteByte(byte(n) | 0x80); err != nil {
			return err
		}
		n >>= 7
	}
	if err := w.WriteByte(byte(n)); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame into buf, which it owns from here on, and
// returns the (possibly different) slice holding it. The length header
// is only a claim: a frame that does not fit buf is read into a buffer
// that starts at frameGrowStart and doubles as payload actually
// arrives, so a peer that sends a huge length and nothing else costs
// one small buffer, not maxFrame of heap.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	if uint64(cap(buf)) < n {
		putFrameBuf(buf)
		buf = make([]byte, 0, min(n, frameGrowStart))
	}
	for have := 0; ; {
		buf = buf[:min(n, uint64(cap(buf)))]
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			return nil, err
		}
		if have = len(buf); uint64(have) == n {
			return buf, nil
		}
		grown := make([]byte, have, min(n, 2*uint64(have)))
		copy(grown, buf)
		buf = grown
	}
}

// frameWriter is the write half of a connection, shared by every
// goroutine that sends on it: each encodes into buf and writes its own
// frame under mu — no writer goroutine to wake. queued counts the
// writers holding or waiting for mu; one that finishes while another
// is queued leaves the flush to it, so a burst of frames still shares
// one write syscall. The first error sticks: later sends fail without
// touching the socket.
type frameWriter struct {
	mu     sync.Mutex
	queued atomic.Int32
	bw     *bufio.Writer
	buf    []byte // encode scratch, valid under mu
	err    error
}

func (w *frameWriter) lock() {
	w.queued.Add(1)
	w.mu.Lock()
}

// sendAndUnlock writes w.buf as one frame and reports its size.
func (w *frameWriter) sendAndUnlock() (int, error) {
	n := len(w.buf)
	if w.err == nil {
		w.err = writeFrameNoFlush(w.bw, w.buf)
	}
	if cap(w.buf) > maxPooledFrame {
		w.buf = nil // one huge message must not pin its scratch forever
	}
	if w.queued.Add(-1) == 0 && w.err == nil {
		w.err = w.bw.Flush()
	}
	err := w.err
	w.mu.Unlock()
	return n, err
}

// TCPServer serves ZHT requests over TCP.
type TCPServer struct {
	ln      net.Listener
	handler Handler
	mode    ServerMode
	met     srvMetrics
	wg      sync.WaitGroup
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closed  bool
}

// srvConn is one accepted connection. Exactly one goroutine at a time
// runs its read loop and owns br.
type srvConn struct {
	s  *TCPServer
	c  net.Conn
	br *bufio.Reader
	w  frameWriter
	// handlers counts handlers still running after they gave the read
	// loop away (Detach) or were spawned (SpawnPerRequest).
	handlers sync.WaitGroup
}

// ListenTCP starts a TCP server on addr (use ":0" for an ephemeral
// port) dispatching to h with the given mode.
func ListenTCP(addr string, h Handler, mode ServerMode, opts ...ServerOption) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &TCPServer{
		ln: ln, handler: h, mode: mode,
		met:   serverMetrics(opts),
		conns: make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.met.conns.Inc()
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		sc := &srvConn{s: s, c: c, br: bufio.NewReaderSize(c, ioBufSize)}
		sc.w.bw = bufio.NewWriterSize(c, ioBufSize)
		s.wg.Add(1)
		go sc.readLoop()
	}
}

// readLoop serves the connection with no handoff: the goroutine that
// read a request decodes it, runs the handler, and encodes and writes
// the response itself, so an uncontended round trip wakes nobody on
// this side. The price is that a handler which blocks here stalls the
// connection behind it, and one that calls another server here can
// deadlock two servers holding nested RPCs to each other — hence the
// Handler contract: call req.Detach() first. Detach starts a fresh
// goroutine on this loop and lets the current one finish its request
// as a one-shot worker, so pipelined slow requests still overlap and
// complete out of order (the client demultiplexes by sequence ID).
// The transport bounds no concurrency: refusing a request is the
// handler's decision (StatusBusy from core's admission hook).
func (sc *srvConn) readLoop() {
	s := sc.s
	defer s.wg.Done()
	detached := false
	detach := func() {
		if detached {
			return
		}
		detached = true
		sc.handlers.Add(1)
		s.wg.Add(1)
		go sc.readLoop()
	}
	for !detached {
		// Pooled buffer per frame: the decoded request aliases it, and
		// after a Detach the next read runs concurrently with this
		// handler, so it returns to the pool when the handler does.
		frame, err := readFrame(sc.br, getFrameBuf())
		if err != nil {
			break
		}
		s.met.bytesIn.Add(int64(len(frame)))
		req, err := wire.DecodeRequestPooled(frame)
		if err != nil {
			putFrameBuf(frame)
			break // protocol violation: drop the connection
		}
		s.met.requests.Inc()
		seq := req.Seq
		if s.mode == SpawnPerRequest {
			sc.spawn(req, frame)
			continue
		}
		req.SetDetach(detach)
		s.met.inflight.Inc()
		resp := s.handler(req)
		s.met.inflight.Dec()
		resp.Seq = seq
		// The Handler contract guarantees neither the request nor its
		// frame outlives the call, so both are recycled before the
		// response is written.
		wire.PutRequest(req)
		putFrameBuf(frame)
		sc.write(resp)
	}
	if detached {
		sc.handlers.Done()
		return
	}
	// The stream ended on this goroutine: let detached handlers answer
	// (the peer may only have closed its write side), then tear down.
	sc.handlers.Wait()
	s.met.conns.Dec()
	s.mu.Lock()
	delete(s.conns, sc.c)
	s.mu.Unlock()
	sc.c.Close()
}

// spawn is the §III.D ablation: the multithreaded prototype spun up a
// thread per request and paid a synchronized handoff on top. Reproduce
// that cost profile — copy the request, spawn a worker, rendezvous
// through a channel — before the response takes the same write path
// as every other.
func (sc *srvConn) spawn(req *wire.Request, frame []byte) {
	s := sc.s
	reqCopy := *req
	reqCopy.Value = append([]byte(nil), req.Value...)
	reqCopy.Aux = append([]byte(nil), req.Aux...)
	seq := req.Seq
	wire.PutRequest(req)
	putFrameBuf(frame)
	done := make(chan *wire.Response, 1)
	sc.handlers.Add(1)
	go func() {
		s.met.inflight.Inc()
		r := s.handler(&reqCopy)
		s.met.inflight.Dec()
		done <- r
	}()
	go func() {
		defer sc.handlers.Done()
		resp := <-done
		resp.Seq = seq
		sc.write(resp)
	}()
}

// write encodes and sends one response, which it owns. After a write
// error the connection is closed (ending the read loop) and later
// responses are dropped, so no handler ever blocks on a dead peer.
func (sc *srvConn) write(resp *wire.Response) {
	sc.w.lock()
	sc.w.buf = wire.EncodeResponse(sc.w.buf[:0], resp)
	wire.PutResponse(resp)
	n, err := sc.w.sendAndUnlock()
	if err != nil {
		sc.c.Close()
		return
	}
	sc.s.met.bytesOut.Add(int64(n))
}

// Close stops accepting, closes all connections, and waits for
// in-flight handlers.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// TCPClientOptions configures a TCP client.
type TCPClientOptions struct {
	// ConnCache enables the multiplexed connection cache: full-duplex
	// connections kept per destination and shared by all concurrent
	// calls. Without it every Call dials a fresh connection and runs
	// in lockstep (the paper's "TCP without connection caching"
	// configuration).
	ConnCache bool
	// MaxCached bounds the number of cached connections across all
	// destinations; the least recently used is evicted (idle ones
	// first). 0 means DefaultMaxCached.
	MaxCached int
	// Timeout bounds dial + round trip per call. 0 means
	// DefaultTimeout.
	Timeout time.Duration
	// Metrics, when non-nil, receives the caller-side instruments
	// (zht.transport.* — calls, dials, cache hits, bytes).
	Metrics *metrics.Registry
}

// Defaults for TCPClientOptions zero values.
const (
	DefaultMaxCached = 1024
	DefaultTimeout   = 10 * time.Second
)

var (
	errClientClosed = errors.New("transport: client closed")
	errConnEvicted  = errors.New("transport: connection evicted from cache")
	errDialRace     = errors.New("transport: lost dial race")
	errUncached     = errors.New("transport: uncached call finished")
)

// TCPClient issues requests over TCP. With ConnCache enabled every
// destination keeps multiplexed full-duplex connections (§III.F) on
// which the callers do their own socket I/O: a caller writes its frame
// itself and then either reads responses itself (the connection's
// read role) or parks until the caller holding that role delivers its
// response by sequence ID — so an uncontended call wakes no goroutine
// on this side, and any number of concurrent calls can share one
// connection. A call that finds every cached connection to its
// destination busy dials another, up to GOMAXPROCS per destination:
// callers running in parallel each get a socket to themselves, and
// beyond that they share. When a connection fails, every call in
// flight on it fails with a retriable error (ErrUnreachable taxonomy)
// — the caller does not know whether its request executed.
type TCPClient struct {
	opts    TCPClientOptions
	met     cliMetrics
	perDest int // connections one destination may hold

	mu     sync.Mutex
	lru    *list.List // of *muxConn, front = most recently used
	byAddr map[string][]*muxConn
	closed bool
}

// muxConn is one multiplexed connection. Callers register a sequence
// ID and a parking channel, send under w, and then contend for the
// read role (see await).
type muxConn struct {
	addr   string
	c      net.Conn
	client *TCPClient
	el     *list.Element // place in client.lru, nil when uncached; guarded by client.mu
	busy   atomic.Int32  // calls holding this connection; raised under client.mu

	w     frameWriter
	br    *bufio.Reader // owned by the read-role holder
	frame []byte        // read frame kept across responses; owned by the read-role holder

	mu       sync.Mutex
	seq      uint64
	inflight map[uint64]chan *wire.Response
	parked   map[uint64]chan *wire.Response // the inflight callers waiting as followers
	reading  bool                           // a caller holds (or was just sent) the read role
	failed   bool
	err      error
}

// NewTCPClient creates a client.
func NewTCPClient(opts TCPClientOptions) *TCPClient {
	if opts.MaxCached == 0 {
		opts.MaxCached = DefaultMaxCached
	}
	if opts.Timeout == 0 {
		opts.Timeout = DefaultTimeout
	}
	return &TCPClient{
		opts:    opts,
		met:     newCliMetrics(opts.Metrics),
		perDest: runtime.GOMAXPROCS(0),
		lru:     list.New(),
		byAddr:  make(map[string][]*muxConn),
	}
}

// Call implements Caller. The call deadline is the client's configured
// timeout bounded by the request's remaining budget
// (wire.Request.Budget), so one over-deadline call can never block
// past the operation's end-to-end deadline.
func (c *TCPClient) Call(addr string, req *wire.Request) (*wire.Response, error) {
	p := c.Start(addr, req)
	return p.Wait()
}

// CallBatch implements Caller by packing the sub-requests into one
// OpBatch envelope: a batch is a single message on the (multiplexed)
// connection, amortizing framing, syscalls, and scheduling across its
// sub-operations.
func (c *TCPClient) CallBatch(addr string, reqs []*wire.Request) ([]*wire.Response, error) {
	p := c.StartBatch(addr, reqs)
	return p.WaitBatch()
}

// Start implements Starter: it takes a connection, registers a
// sequence ID and writes the frame on the calling goroutine, and
// returns without reading. Call is Start then Wait, so this is the
// client's one send path.
func (c *TCPClient) Start(addr string, req *wire.Request) Pending {
	c.met.calls.Inc()
	p := Pending{tcp: c, addr: addr, req: req, deadline: callDeadline(req, c.opts.Timeout)}
	p.send()
	return p
}

// StartBatch implements Starter by starting one OpBatch envelope
// carrying reqs.
func (c *TCPClient) StartBatch(addr string, reqs []*wire.Request) Pending {
	if len(reqs) == 0 {
		return Pending{}
	}
	c.met.batches.Inc()
	c.met.batchSubs.Observe(int64(len(reqs)))
	p := c.Start(addr, wire.NewBatchRequest(reqs))
	p.subs = len(reqs)
	return p
}

// send puts p's request on a connection: a cached one (a fresh dial
// when p.fresh), or one dialed for this call alone without the cache.
// A failure is kept in p.err for Wait.
func (p *Pending) send() {
	c := p.tcp
	if !p.deadline.IsZero() && !time.Now().Before(p.deadline) {
		p.err = fmt.Errorf("%w: budget exhausted before dial", ErrTimeout)
		return
	}
	var err error
	if c.opts.ConnCache {
		p.mc, err = c.connFor(p.addr, p.deadline, p.fresh)
	} else {
		// The uncached configuration: dial, one round trip, close.
		p.mc, err = c.dialMux(p.addr, p.deadline)
	}
	if err != nil {
		p.err = fmt.Errorf("%w: %v", classify(err), err)
		return
	}
	p.seq, p.ch, p.err = p.mc.send(p.req)
}

// lateGrace is the least time a Wait reads for. A caller awaiting
// several started calls in turn under one deadline may reach the later
// ones only after it has passed, while their answers sit delivered or
// on the socket; those must still be collected, not reported as
// timeouts. The grace is long enough to read what has arrived and too
// short to wait for what has not.
const lateGrace = 2 * time.Millisecond

// waitTCP awaits p's response, for at least lateGrace. When the
// connection failed under the call (server restart, mid-flight reset)
// it has left the cache, and the call is sent again exactly once, on a
// fresh dial — a sibling connection cached alongside it is likely just
// as stale.
func (p *Pending) waitTCP() (*wire.Response, error) {
	for {
		if p.mc == nil {
			return nil, p.err // no connection to send on
		}
		var resp *wire.Response
		err := p.err
		if err == nil {
			deadline := p.deadline
			if late := time.Now().Add(lateGrace); !deadline.IsZero() && deadline.Before(late) {
				deadline = late
			}
			resp, err = p.mc.await(p.seq, p.ch, deadline)
		}
		p.release()
		if err == nil || p.fresh || !p.tcp.opts.ConnCache || errors.Is(err, ErrTimeout) {
			return resp, err
		}
		p.fresh = true
		p.send()
	}
}

// abandonTCP retires p's registration, if it has one, the way a
// deadline does: a response already delivered is recycled, and one
// still to come is dropped by whoever reads it.
func (p *Pending) abandonTCP() {
	if p.mc == nil {
		return
	}
	if p.err == nil {
		wire.PutResponse(p.mc.finish(p.seq, p.ch, false))
	}
	p.release()
}

// release gives back what p held of its connection once the call is
// over: its share of the busy count, or the whole connection when
// uncached.
func (p *Pending) release() {
	if p.ch != nil {
		p.tcp.met.muxInflight.Dec()
	}
	if p.tcp.opts.ConnCache {
		p.mc.busy.Add(-1)
	} else {
		p.mc.fail(errUncached)
	}
	p.mc, p.ch, p.err = nil, nil, nil
}

// connFor returns a connection to addr with its busy count raised for
// one call: an idle cached one if there is any (unless fresh), a newly
// dialed one while the destination holds fewer than perDest and the
// cache has room, the least busy cached one otherwise. Two callers
// colliding on one connection is the one wake-up left on the lockstep
// path, which is why a busy connection is a reason to dial.
func (c *TCPClient) connFor(addr string, deadline time.Time, fresh bool) (*muxConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errClientClosed
	}
	conns := c.byAddr[addr]
	if mc := leastBusy(conns); mc != nil && !fresh &&
		(mc.busy.Load() == 0 || len(conns) >= c.perDest || c.lru.Len() >= c.opts.MaxCached) {
		c.lru.MoveToFront(mc.el)
		mc.busy.Add(1)
		c.mu.Unlock()
		c.met.cachedHits.Inc()
		return mc, nil
	}
	c.mu.Unlock()
	mc, err := c.dialMux(addr, deadline)
	if err != nil {
		return nil, err
	}
	var evicted []*muxConn
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		mc.fail(errClientClosed)
		return nil, errClientClosed
	}
	if conns = c.byAddr[addr]; len(conns) >= c.perDest {
		// Concurrent dials filled the destination first: keep theirs.
		winner := leastBusy(conns)
		c.lru.MoveToFront(winner.el)
		winner.busy.Add(1)
		c.mu.Unlock()
		mc.fail(errDialRace)
		return winner, nil
	}
	mc.busy.Add(1)
	mc.el = c.lru.PushFront(mc)
	c.byAddr[addr] = append(conns, mc)
	for c.lru.Len() > c.opts.MaxCached {
		victim := c.evictable()
		if victim == nil {
			break
		}
		c.unlink(victim)
		evicted = append(evicted, victim)
	}
	c.mu.Unlock()
	for _, v := range evicted {
		v.fail(errConnEvicted)
	}
	return mc, nil
}

// leastBusy returns the connection with the fewest calls on it, the
// earliest cached on ties (so a lone caller keeps reusing one warm
// socket); nil when conns is empty.
func leastBusy(conns []*muxConn) *muxConn {
	var best *muxConn
	for _, mc := range conns {
		if best == nil || mc.busy.Load() < best.busy.Load() {
			best = mc
		}
	}
	return best
}

// evictable picks the LRU victim, preferring connections with no
// calls on them; the front (most recent) element is never evicted.
func (c *TCPClient) evictable() *muxConn {
	for el := c.lru.Back(); el != nil && el != c.lru.Front(); el = el.Prev() {
		if mc := el.Value.(*muxConn); mc.busy.Load() == 0 {
			return mc
		}
	}
	if el := c.lru.Back(); el != nil && el != c.lru.Front() {
		return el.Value.(*muxConn)
	}
	return nil
}

func (c *TCPClient) dialMux(addr string, deadline time.Time) (*muxConn, error) {
	c.met.dials.Inc()
	d := net.Dialer{Deadline: deadline}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	mc := &muxConn{
		addr:     addr,
		c:        conn,
		client:   c,
		br:       bufio.NewReaderSize(conn, ioBufSize),
		inflight: make(map[uint64]chan *wire.Response),
		parked:   make(map[uint64]chan *wire.Response),
	}
	mc.w.bw = bufio.NewWriterSize(conn, ioBufSize)
	return mc, nil
}

// unlink removes mc from the cache if it is (still) in it. c.mu held.
func (c *TCPClient) unlink(mc *muxConn) {
	if mc.el == nil {
		return
	}
	c.lru.Remove(mc.el)
	mc.el = nil
	if conns := c.byAddr[mc.addr]; len(conns) == 1 {
		delete(c.byAddr, mc.addr)
	} else {
		i := slices.Index(conns, mc)
		c.byAddr[mc.addr] = slices.Delete(conns, i, i+1)
	}
}

// respChPool recycles the cap-1 parking channels callers wait on.
// Safe because a channel only returns to the pool when its owner can
// prove no further send or close can touch it: every send and close
// happens under mc.mu to a channel registered in mc.inflight, so once
// the entry is gone (deleted on delivery, or by finish) and the
// connection had not failed, the channel is the owner's alone.
// Channels on a failed connection are closed by fail and never pooled.
var respChPool = sync.Pool{New: func() any { return make(chan *wire.Response, 1) }}

// timerPool recycles deadline timers: time.NewTimer allocates the
// timer, its runtime state, and its channel, which dominated the
// hot-path allocation profile at one timer per round trip.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// putTimer pools t if it could be stopped before firing. A timer that
// has fired is dropped instead: Stop can report it fired before its
// tick has reached t.C, and a tick landing after the drain would end
// the next user's wait the moment it began.
func putTimer(t *time.Timer) {
	if t.Stop() {
		timerPool.Put(t)
	}
}

// send registers a sequence ID for req and writes its frame on this
// goroutine. ch is nil when the connection had already failed; after
// a failed write it is registered, and closed by the failure.
func (mc *muxConn) send(req *wire.Request) (seq uint64, ch chan *wire.Response, err error) {
	ch = respChPool.Get().(chan *wire.Response)
	mc.mu.Lock()
	if mc.failed {
		mc.mu.Unlock()
		respChPool.Put(ch)
		return 0, nil, mc.failure()
	}
	mc.seq++
	seq = mc.seq
	mc.inflight[seq] = ch
	mc.mu.Unlock()
	met := &mc.client.met
	met.muxInflight.Inc()

	r := *req // callers may reuse req concurrently; never mutate it
	r.Seq = seq
	mc.w.lock()
	// Bounded by the client's timeout, not this call's budget: a frame
	// cut short by one caller's tight deadline would cost every caller
	// the connection, and a write only blocks at all once the peer has
	// stopped draining the socket.
	mc.c.SetWriteDeadline(time.Now().Add(mc.client.opts.Timeout))
	mc.w.buf = wire.EncodeRequest(mc.w.buf[:0], &r)
	n, err := mc.w.sendAndUnlock()
	if err != nil {
		return seq, ch, mc.broke(err)
	}
	met.bytesOut.Add(int64(n))
	return seq, ch, nil
}

// await collects seq's response. Whoever finds the connection's read
// role free takes it and reads frames itself (lead), delivering other
// callers' responses to their channels as they come; everyone else
// parks as a follower until the leader delivers its response, hands
// it the role (a nil token), the connection fails (ch closed), or its
// own deadline passes. The role is taken only after the request is
// written, and handed only to parked callers, so it never sits with a
// goroutine that is blocked writing while the peer waits to be read.
func (mc *muxConn) await(seq uint64, ch chan *wire.Response, deadline time.Time) (*wire.Response, error) {
	mc.mu.Lock()
	// A leader that has just left may already have put this call's
	// response in ch; taking the role then would wait for a frame that
	// is never coming. Sends happen under mu, so len is exact here.
	lead := !mc.reading && !mc.failed && len(ch) == 0
	if lead {
		mc.reading = true
	} else if !mc.failed && len(ch) == 0 {
		mc.parked[seq] = ch
	}
	mc.mu.Unlock()
	if !lead {
		var expire <-chan time.Time
		if !deadline.IsZero() {
			timer := getTimer(time.Until(deadline))
			defer putTimer(timer)
			expire = timer.C
		}
		select {
		case resp, ok := <-ch:
			if !ok {
				return nil, mc.failure()
			}
			if resp != nil {
				respChPool.Put(ch) // delivered: the entry is gone, ch is ours
				return resp, nil
			}
		case <-expire:
			if resp := mc.finish(seq, ch, false); resp != nil {
				return resp, nil // delivered as the deadline fired
			}
			return nil, fmt.Errorf("%w: no response within deadline", ErrTimeout)
		}
	}
	return mc.lead(seq, ch, deadline)
}

// lead runs the read role for seq's caller until its own response
// arrives or its deadline passes. The deadline may only abandon this
// one call at a frame boundary (Peek timed out with nothing read); a
// timeout — or any error — inside a frame fails the connection,
// because the next reader would start in the middle of a frame.
func (mc *muxConn) lead(seq uint64, ch chan *wire.Response, deadline time.Time) (*wire.Response, error) {
	mc.c.SetReadDeadline(deadline)
	for {
		if _, err := mc.br.Peek(1); err != nil {
			if classify(err) != ErrTimeout {
				return nil, mc.broke(err)
			}
			mc.finish(seq, ch, true)
			return nil, fmt.Errorf("%w: no response within deadline", ErrTimeout)
		}
		if mc.frame == nil {
			mc.frame = getFrameBuf()
		}
		f, err := readFrame(mc.br, mc.frame)
		mc.frame = f // nil on error: readFrame consumed the buffer
		if err != nil {
			return nil, mc.broke(err)
		}
		mc.client.met.bytesIn.Add(int64(len(f)))
		resp, err := wire.DecodeResponsePooled(f)
		if err != nil {
			return nil, mc.broke(err)
		}
		// A small response is copied out right-sized and the frame
		// kept for the next read; a large one takes the frame with it
		// (a Lookup's Value IS the frame) rather than pay the copy.
		switch aliases := resp.Value != nil || resp.Table != nil; {
		case aliases && len(f) <= frameBufCap/4:
			ownPayload(resp)
		case aliases || cap(f) > maxPooledFrame:
			mc.frame = nil
		}
		if resp.Seq == seq {
			mc.finish(seq, ch, true)
			return resp, nil
		}
		// Deliver under the lock: a send can then never race finish, so
		// a caller that gives up on its sequence ID knows no response
		// will arrive afterwards and may recycle its channel.
		mc.mu.Lock()
		to := mc.inflight[resp.Seq]
		delete(mc.inflight, resp.Seq)
		delete(mc.parked, resp.Seq)
		if to != nil {
			to <- resp // cap 1, one send per seq: never blocks
		}
		mc.mu.Unlock()
		if to == nil {
			wire.PutResponse(resp) // its caller timed out and left
		}
	}
}

// ownPayload moves resp's frame-aliasing fields into one allocation of
// exactly their size.
func ownPayload(resp *wire.Response) {
	buf := make([]byte, len(resp.Value)+len(resp.Table))
	n := copy(buf, resp.Value)
	copy(buf[n:], resp.Table)
	if resp.Value != nil {
		resp.Value = buf[:n:n]
	}
	if resp.Table != nil {
		resp.Table = buf[n:]
	}
}

// finish retires seq's registration when its caller stops waiting —
// answered as leader, or out of time — and recycles ch. It returns the
// caller's response if one was delivered to ch meanwhile (nil when
// none was), which the caller then owns. A caller that holds the read
// role (leader, or a follower whose token landed in ch as it gave up)
// hands it to a parked caller, or frees it when none is parked;
// callers still writing find it free when they get to await.
func (mc *muxConn) finish(seq uint64, ch chan *wire.Response, leader bool) (delivered *wire.Response) {
	mc.mu.Lock()
	delete(mc.inflight, seq)
	delete(mc.parked, seq)
	select {
	case resp, ok := <-ch:
		if resp != nil {
			delivered = resp
		} else if ok {
			leader = true
		}
	default:
	}
	if leader {
		mc.reading = false
		for next, to := range mc.parked {
			delete(mc.parked, next)
			mc.reading = true
			to <- nil // empty: a parked caller's response has not been delivered
			break
		}
	}
	failed := mc.failed
	mc.mu.Unlock()
	if !failed {
		respChPool.Put(ch)
	}
	return delivered
}

// broke fails the connection after an I/O error inside a frame and
// returns the error for the caller that hit it. A deadline firing
// mid-frame is that caller's timeout but everybody else's broken
// connection, so the recorded cause is deliberately not a timeout.
func (mc *muxConn) broke(err error) error {
	if classify(err) == ErrTimeout {
		mc.fail(fmt.Errorf("transport: a call's deadline passed mid-frame (%v)", err))
		return fmt.Errorf("%w: no response within deadline", ErrTimeout)
	}
	mc.fail(err)
	return mc.failure()
}

// failure reports why the connection failed, in the error taxonomy.
// The error is retriable, but a request in flight may or may not have
// executed on the server.
func (mc *muxConn) failure() error {
	mc.mu.Lock()
	err := mc.err
	mc.mu.Unlock()
	return fmt.Errorf("%w: in-flight call failed: %v", classify(err), err)
}

// fail marks the connection dead exactly once: it takes the connection
// out of the cache (first, so a caller woken by the failure cannot be
// handed it again on its retry), closes every in-flight caller's
// channel so all of them fail promptly with a retriable error, and
// closes the socket (unblocking its reader and writers). The channels
// are closed while holding mc.mu so that finish's failed check is
// exact: a caller that retires its registration on a healthy
// connection can never have its channel closed afterwards.
func (mc *muxConn) fail(err error) {
	mc.client.mu.Lock()
	mc.client.unlink(mc)
	mc.client.mu.Unlock()
	mc.mu.Lock()
	if mc.failed {
		mc.mu.Unlock()
		return
	}
	mc.failed = true
	mc.err = err
	for _, ch := range mc.inflight {
		close(ch)
	}
	clear(mc.inflight)
	clear(mc.parked)
	mc.mu.Unlock()
	mc.c.Close()
}

// CachedConns reports the number of cached multiplexed connections
// (for tests and monitoring).
func (c *TCPClient) CachedConns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Close drops all cached connections, failing any calls in flight on
// them.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	c.closed = true
	var conns []*muxConn
	for el := c.lru.Front(); el != nil; el = el.Next() {
		conns = append(conns, el.Value.(*muxConn))
	}
	for _, mc := range conns {
		c.unlink(mc)
	}
	c.mu.Unlock()
	for _, mc := range conns {
		mc.fail(errClientClosed)
	}
	return nil
}
