package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"zht/internal/metrics"
	"zht/internal/wire"
)

// Tests for the caller-driven client I/O (read role, hand-over,
// failure) and the inline server (Detach), driven where timing matters
// by a hand-scripted peer instead of a real server.

// scriptPeer is a listener whose connections the test answers by hand.
type scriptPeer struct {
	t  *testing.T
	ln net.Listener
}

// scriptConn is one accepted connection of a scriptPeer.
type scriptConn struct {
	t  *testing.T
	c  net.Conn
	br *bufio.Reader
}

func newScriptPeer(t *testing.T) *scriptPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return &scriptPeer{t: t, ln: ln}
}

func (p *scriptPeer) addr() string { return p.ln.Addr().String() }

func (p *scriptPeer) accept() *scriptConn {
	p.t.Helper()
	c, err := p.ln.Accept()
	if err != nil {
		p.t.Fatal(err)
	}
	p.t.Cleanup(func() { c.Close() })
	return &scriptConn{t: p.t, c: c, br: bufio.NewReader(c)}
}

// next reads one request off the connection.
func (sc *scriptConn) next() *wire.Request {
	sc.t.Helper()
	sc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	frame, err := readFrame(sc.br, nil)
	if err != nil {
		sc.t.Fatalf("script peer read: %v", err)
	}
	req, err := wire.DecodeRequest(frame)
	if err != nil {
		sc.t.Fatal(err)
	}
	return req
}

// frameFor encodes the echo of req as a complete frame.
func frameFor(req *wire.Request) []byte {
	body := wire.EncodeResponse(nil, &wire.Response{Status: wire.StatusOK, Seq: req.Seq, Value: []byte("echo:" + req.Key)})
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

func (sc *scriptConn) reply(req *wire.Request) {
	sc.t.Helper()
	if _, err := sc.c.Write(frameFor(req)); err != nil {
		sc.t.Fatal(err)
	}
}

type outcome struct {
	resp *wire.Response
	err  error
}

// goCall issues key on c in the background and reports the outcome.
func goCall(c Caller, addr, key string, budget time.Duration) <-chan outcome {
	ch := make(chan outcome, 1)
	go func() {
		resp, err := c.Call(addr, &wire.Request{Op: wire.OpLookup, Key: key, Budget: uint64(budget)})
		ch <- outcome{resp, err}
	}()
	return ch
}

func wantValue(t *testing.T, who string, o outcome, want string) {
	t.Helper()
	if o.err != nil {
		t.Fatalf("%s: %v", who, o.err)
	}
	if got := string(o.resp.Value); got != want {
		t.Fatalf("%s got %q, want %q", who, got, want)
	}
}

// oneConnClient returns a caching client held to one connection per
// destination, so concurrent callers must share it.
func oneConnClient(t *testing.T, reg *metrics.Registry) *TCPClient {
	c := NewTCPClient(TCPClientOptions{ConnCache: true, Metrics: reg})
	c.perDest, c.timeout = 1, 5*time.Second
	t.Cleanup(func() { c.Close() })
	return c
}

func TestLeaderDeliversFollowersResponseFirst(t *testing.T) {
	peer := newScriptPeer(t)
	c := oneConnClient(t, nil)
	a := goCall(c, peer.addr(), "a", 0)
	conn := peer.accept()
	ra := conn.next() // a wrote first: all but always a holds the read role
	b := goCall(c, peer.addr(), "b", 0)
	rb := conn.next()
	conn.reply(rb) // whoever reads it, b must get it and a must keep waiting
	wantValue(t, "b", <-b, "echo:b")
	select {
	case o := <-a:
		t.Fatalf("a returned %v %v before its response was sent", o.resp, o.err)
	case <-time.After(20 * time.Millisecond):
	}
	conn.reply(ra)
	wantValue(t, "a", <-a, "echo:a")
	if c.CachedConns() != 1 {
		t.Fatalf("callers used %d connections, want the one shared", c.CachedConns())
	}
}

func TestReadRoleHandedOverAtLeaderDeadline(t *testing.T) {
	peer := newScriptPeer(t)
	reg := metrics.NewRegistry()
	c := oneConnClient(t, reg)
	a := goCall(c, peer.addr(), "a", 60*time.Millisecond)
	conn := peer.accept()
	ra := conn.next()
	b := goCall(c, peer.addr(), "b", 0)
	rb := conn.next()
	// Nothing arrives: a's deadline passes at a frame boundary, which
	// costs a its call and nobody else anything.
	if o := <-a; !errors.Is(o.err, ErrTimeout) {
		t.Fatalf("leader past its deadline: %v %v, want ErrTimeout", o.resp, o.err)
	}
	conn.reply(ra) // late, for a caller that has left: dropped by whoever reads it
	conn.reply(rb)
	wantValue(t, "follower b (now leader)", <-b, "echo:b")
	cc := goCall(c, peer.addr(), "c", 0)
	conn.reply(conn.next())
	wantValue(t, "c on the same connection", <-cc, "echo:c")
	if d := reg.Counter("zht.transport.dials").Value(); d != 1 {
		t.Fatalf("%d dials, want 1: the connection must survive a caller's timeout", d)
	}
}

func TestMidFrameTimeoutFailsConnectionRetriably(t *testing.T) {
	peer := newScriptPeer(t)
	reg := metrics.NewRegistry()
	c := oneConnClient(t, reg)
	a := goCall(c, peer.addr(), "a", 80*time.Millisecond)
	conn := peer.accept()
	ra := conn.next()
	b := goCall(c, peer.addr(), "b", 0)
	rb := conn.next()
	// Half of a's frame, then silence: a's deadline fires inside the
	// frame, and the byte stream is unusable for whoever reads next.
	f := frameFor(ra)
	if _, err := conn.c.Write(f[:len(f)/2]); err != nil {
		t.Fatal(err)
	}
	if o := <-a; !errors.Is(o.err, ErrTimeout) {
		t.Fatalf("leader cut off mid-frame: %v %v, want ErrTimeout", o.resp, o.err)
	}
	// b was in flight on the failed connection: it fails retriably, so
	// Call redials and b is answered on the new connection.
	conn2 := peer.accept()
	if r := conn2.next(); r.Key != rb.Key {
		t.Fatalf("retried %q, want %q", r.Key, rb.Key)
	} else {
		conn2.reply(r)
	}
	wantValue(t, "b after redial", <-b, "echo:b")
	if d := reg.Counter("zht.transport.dials").Value(); d != 2 {
		t.Fatalf("%d dials, want 2 (the failed connection and b's retry)", d)
	}
	if c.CachedConns() != 1 {
		t.Fatalf("%d cached connections, want only the fresh one", c.CachedConns())
	}
}

// newIdleMux returns a muxConn whose peer never sends anything.
func newIdleMux(t *testing.T) *muxConn {
	peer := newScriptPeer(t)
	c := oneConnClient(t, nil)
	mc, err := c.dialMux(peer.addr(), time.Now().Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	peer.accept()
	t.Cleanup(func() { mc.fail(errClientClosed) })
	return mc
}

// A caller reaching await may find its response already delivered by a
// leader that has since left with nobody parked (role free). Taking
// the role then would wait for a frame that never comes.
func TestAwaitChecksOwnChannelBeforeTakingReadRole(t *testing.T) {
	mc := newIdleMux(t)
	ch := make(chan *wire.Response, 1)
	want := &wire.Response{Status: wire.StatusOK, Seq: 7}
	ch <- want // delivered: entry already gone from inflight
	start := time.Now()
	got, err := mc.await(7, ch, start.Add(2*time.Second))
	if err != nil || got != want {
		t.Fatalf("await = %v %v, want the delivered response", got, err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("await took %v: it went reading instead of looking in its channel", el)
	}
	if mc.reading {
		t.Fatal("read role taken by a caller that was already answered")
	}
}

// A follower that gives up in the instant the role token lands in its
// channel must pass the role on, or the connection has a leader that
// is gone.
func TestAbandoningFollowerPassesOnToken(t *testing.T) {
	mc := newIdleMux(t)
	quitter, waiter := make(chan *wire.Response, 1), make(chan *wire.Response, 1)
	mc.inflight[1], mc.parked[1] = quitter, quitter
	mc.inflight[2], mc.parked[2] = waiter, waiter
	mc.reading = true
	delete(mc.parked, 1)
	quitter <- nil // the departing leader picked the quitter
	mc.finish(1, quitter, false)
	select {
	case tok := <-waiter:
		if tok != nil {
			t.Fatalf("waiter got %v, want the role token", tok)
		}
	default:
		t.Fatal("token died with the follower that abandoned its call")
	}
	mc.finish(2, waiter, true)
	if mc.reading {
		t.Fatal("read role still held with nobody waiting")
	}
}

// The same two races, unscripted: callers pile onto one connection
// against a live server (run under -race -count=50). A lost wake-up
// shows as a call that only ends at its deadline.
func TestSharedConnectionNeverWedges(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler, EventDriven)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := oneConnClient(t, nil)
	const workers, per = 6, 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				// Every few calls one caller gives up almost at once, so
				// role hand-over at a deadline is in the mix.
				var budget time.Duration
				if i%7 == w {
					budget = 30 * time.Microsecond
				}
				start := time.Now()
				resp, err := c.Call(srv.Addr(), &wire.Request{Op: wire.OpLookup, Key: key, Budget: uint64(budget)})
				switch {
				case err == nil && string(resp.Value) != "echo:"+key+":":
					t.Errorf("%s got %q", key, resp.Value)
				case err != nil && (budget == 0 || !errors.Is(err, ErrTimeout)):
					t.Errorf("%s: %v", key, err)
				case time.Since(start) > 2*time.Second:
					t.Errorf("%s took %v: wedged until its deadline", key, time.Since(start))
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestBlockingHandlerWithoutDetachStallsOnlyItsConnection(t *testing.T) {
	release := make(chan struct{})
	parked := make(chan struct{}, 1)
	h := func(req *wire.Request) *wire.Response {
		if req.Key == "block" {
			parked <- struct{}{}
			<-release
		}
		return echoHandler(req)
	}
	srv, err := ListenTCP("127.0.0.1:0", h, EventDriven)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	stuck, other := oneConnClient(t, nil), oneConnClient(t, nil)
	blocked := goCall(stuck, srv.Addr(), "block", 0)
	<-parked
	behind := goCall(stuck, srv.Addr(), "behind", 0)
	for i := 0; i < 20; i++ {
		wantValue(t, "call on another connection", <-goCall(other, srv.Addr(), "free", 0), "echo:free:")
	}
	select {
	case o := <-behind:
		t.Fatalf("request behind a blocked inline handler was served: %v %v", o.resp, o.err)
	case <-time.After(30 * time.Millisecond):
	}
	close(release)
	wantValue(t, "blocked call", <-blocked, "echo:block:")
	wantValue(t, "call queued behind it", <-behind, "echo:behind:")
}

// Two servers whose handlers call each other, each direction over ONE
// shared connection: with the nested call made on the connection's
// reader, S1's reader waits on S2's and S2's on S1's. Detach before
// calling out is what keeps that from deadlocking.
func TestNestedCallsBetweenServersAfterDetach(t *testing.T) {
	link := oneConnClient(t, nil)
	var addrs [2]string
	handler := func(self int) Handler {
		return func(req *wire.Request) *wire.Response {
			if req.Hop == 2 {
				return echoHandler(req)
			}
			req.Detach()
			fwd := *req
			fwd.Hop++
			resp, err := link.Call(addrs[1-self], &fwd)
			if err != nil {
				return &wire.Response{Status: wire.StatusError, Err: err.Error()}
			}
			return &wire.Response{Status: resp.Status, Value: append([]byte(nil), resp.Value...)}
		}
	}
	for i := range addrs {
		srv, err := ListenTCP("127.0.0.1:0", handler(i), EventDriven)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs[i] = srv.Addr()
	}
	c := NewTCPClient(TCPClientOptions{ConnCache: true})
	c.timeout = 20 * time.Second
	defer c.Close()
	const calls = 1000
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("n%d", i)
			resp, err := c.Call(addrs[i%2], &wire.Request{Op: wire.OpLookup, Key: key})
			if err != nil || string(resp.Value) != "echo:"+key+":" {
				t.Errorf("nested call %s: %v %v", key, resp, err)
			}
		}(i)
	}
	wg.Wait()
}

// A frame header is a claim, not a fact: reading must not allocate what
// the header announces before the bytes show up.
func TestReadFrameGrowsWithArrivingBytes(t *testing.T) {
	allocated := func(stream io.Reader) (uint64, error) {
		var before, after runtime.MemStats
		br := bufio.NewReaderSize(stream, 4<<10)
		runtime.ReadMemStats(&before)
		_, err := readFrame(br, make([]byte, 0, frameBufCap))
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	header := binary.AppendUvarint(nil, maxFrame)
	if n, err := allocated(bytes.NewReader(header)); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("header-only stream: %v, want EOF", err)
	} else if n > 1<<20 {
		t.Fatalf("a %d-byte header made readFrame allocate %d bytes", len(header), n)
	}
	// 300 KiB of a claimed 128 MiB frame, handed over a byte at a time.
	trickle := io.MultiReader(bytes.NewReader(header), iotest.OneByteReader(bytes.NewReader(make([]byte, 300<<10))))
	if n, err := allocated(trickle); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated stream: %v, want ErrUnexpectedEOF", err)
	} else if n > 2<<20 {
		t.Fatalf("300 KiB of payload made readFrame allocate %d bytes", n)
	}
	// And an honest large frame still arrives whole.
	big := bytes.Repeat([]byte{0xab}, 300<<10)
	br := bufio.NewReader(io.MultiReader(bytes.NewReader(binary.AppendUvarint(nil, uint64(len(big)))), bytes.NewReader(big)))
	if got, err := readFrame(br, nil); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("large frame: %d bytes, err %v", len(got), err)
	}
}

func TestHeaderOnlyPeersCostOneConnectionEach(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, err := ListenTCP("127.0.0.1:0", echoHandler, EventDriven, WithServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conns := reg.Gauge("zht.server.conns")
	waitConns := func(want int64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); conns.Value() != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("server holds %d connections, want %d", conns.Value(), want)
			}
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const peers = 8
	var raws []net.Conn
	for i := 0; i < peers; i++ {
		raw, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		raw.Write(binary.AppendUvarint(nil, maxFrame))
		raw.Write([]byte("only a few bytes of it"))
		raws = append(raws, raw)
	}
	waitConns(peers)
	time.Sleep(20 * time.Millisecond) // let every reader get past its header
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 16<<20 {
		t.Fatalf("%d header-only peers grew the heap by %d MiB", peers, grew>>20)
	}
	for _, raw := range raws {
		raw.Close()
	}
	waitConns(0)
}
