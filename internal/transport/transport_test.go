package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zht/internal/wire"
)

// echoHandler returns the request's value, tagging the key so tests
// can verify the handler actually ran.
func echoHandler(req *wire.Request) *wire.Response {
	return &wire.Response{
		Status: wire.StatusOK,
		Value:  append([]byte("echo:"+req.Key+":"), req.Value...),
	}
}

// callersUnderTest builds each transport configuration against a
// freshly started echo server and returns (caller, addr, cleanup).
func callersUnderTest(t *testing.T) map[string]func() (Caller, string) {
	t.Helper()
	return map[string]func() (Caller, string){
		"tcp-cached": func() (Caller, string) {
			srv, err := ListenTCP("127.0.0.1:0", echoHandler, EventDriven)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			c := NewTCPClient(TCPClientOptions{ConnCache: true})
			t.Cleanup(func() { c.Close() })
			return c, srv.Addr()
		},
		"tcp-uncached": func() (Caller, string) {
			srv, err := ListenTCP("127.0.0.1:0", echoHandler, EventDriven)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			c := NewTCPClient(TCPClientOptions{ConnCache: false})
			t.Cleanup(func() { c.Close() })
			return c, srv.Addr()
		},
		"tcp-spawn": func() (Caller, string) {
			srv, err := ListenTCP("127.0.0.1:0", echoHandler, SpawnPerRequest)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			c := NewTCPClient(TCPClientOptions{ConnCache: true})
			t.Cleanup(func() { c.Close() })
			return c, srv.Addr()
		},
		"udp": func() (Caller, string) {
			srv, err := ListenUDP("127.0.0.1:0", echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			c := NewUDPClient(UDPClientOptions{})
			t.Cleanup(func() { c.Close() })
			return c, srv.Addr()
		},
		"inproc": func() (Caller, string) {
			reg := NewRegistry()
			srv, err := reg.Listen("node-a", echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			return reg.NewClient(), srv.Addr()
		},
	}
}

func TestRoundTripAllTransports(t *testing.T) {
	for name, mk := range callersUnderTest(t) {
		mk := mk
		t.Run(name, func(t *testing.T) {
			c, addr := mk()
			resp, err := c.Call(addr, &wire.Request{Op: wire.OpInsert, Key: "k1", Value: []byte("hello")})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Status != wire.StatusOK || string(resp.Value) != "echo:k1:hello" {
				t.Errorf("got %v %q", resp.Status, resp.Value)
			}
		})
	}
}

func TestSequentialCallsReuseConnection(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler, EventDriven)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewTCPClient(TCPClientOptions{ConnCache: true})
	defer c.Close()
	for i := 0; i < 50; i++ {
		if _, err := c.Call(srv.Addr(), &wire.Request{Op: wire.OpPing}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.CachedConns(); got != 1 {
		t.Errorf("cached conns = %d, want 1 (sequential calls must reuse)", got)
	}
}

func TestConcurrentCallsAllTransports(t *testing.T) {
	for name, mk := range callersUnderTest(t) {
		mk := mk
		t.Run(name, func(t *testing.T) {
			c, addr := mk()
			const workers, per = 16, 50
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						key := fmt.Sprintf("w%d-i%d", w, i)
						resp, err := c.Call(addr, &wire.Request{Op: wire.OpLookup, Key: key, Value: []byte(key)})
						if err != nil {
							errs <- err
							return
						}
						want := "echo:" + key + ":" + key
						if string(resp.Value) != want {
							errs <- fmt.Errorf("cross-talk: got %q want %q", resp.Value, want)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

func TestLRUEviction(t *testing.T) {
	var srvs []*TCPServer
	for i := 0; i < 5; i++ {
		s, err := ListenTCP("127.0.0.1:0", echoHandler, EventDriven)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		srvs = append(srvs, s)
	}
	c := NewTCPClient(TCPClientOptions{ConnCache: true, MaxCached: 3})
	defer c.Close()
	for _, s := range srvs {
		if _, err := c.Call(s.Addr(), &wire.Request{Op: wire.OpPing}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.CachedConns(); got != 3 {
		t.Errorf("cached conns = %d, want cap 3", got)
	}
	// Oldest destinations evicted, but calls to them still succeed
	// (they just redial).
	if _, err := c.Call(srvs[0].Addr(), &wire.Request{Op: wire.OpPing}); err != nil {
		t.Fatal(err)
	}
}

func TestStaleCachedConnectionRedials(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler, EventDriven)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	c := NewTCPClient(TCPClientOptions{ConnCache: true, Timeout: 2 * time.Second})
	defer c.Close()
	if _, err := c.Call(addr, &wire.Request{Op: wire.OpPing}); err != nil {
		t.Fatal(err)
	}
	// Restart the server on the same address; the cached conn is now
	// dead and the client must transparently redial.
	srv.Close()
	srv2, err := ListenTCP(addr, echoHandler, EventDriven)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	resp, err := c.Call(addr, &wire.Request{Op: wire.OpPing})
	if err != nil {
		t.Fatalf("call after server restart: %v", err)
	}
	if resp.Status != wire.StatusOK {
		t.Errorf("status = %v", resp.Status)
	}
}

func TestUnreachableDestination(t *testing.T) {
	tcp := NewTCPClient(TCPClientOptions{Timeout: 300 * time.Millisecond})
	defer tcp.Close()
	if _, err := tcp.Call("127.0.0.1:1", &wire.Request{Op: wire.OpPing}); err == nil {
		t.Error("tcp call to closed port succeeded")
	}
	reg := NewRegistry()
	if _, err := reg.NewClient().Call("ghost", &wire.Request{Op: wire.OpPing}); err == nil {
		t.Error("inproc call to unregistered endpoint succeeded")
	}
}

func TestUDPTimeoutAndRetry(t *testing.T) {
	// A UDP server that drops the first datagram of each sequence
	// exercises the retransmission path.
	var mu sync.Mutex
	seen := map[uint64]bool{}
	srv, err := ListenUDP("127.0.0.1:0", func(req *wire.Request) *wire.Response {
		mu.Lock()
		first := !seen[req.Seq]
		seen[req.Seq] = true
		mu.Unlock()
		if first {
			// Simulate datagram loss by stalling past the client
			// deadline: the client will retransmit with the same seq.
			time.Sleep(300 * time.Millisecond)
		}
		return &wire.Response{Status: wire.StatusOK, Value: []byte("pong")}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewUDPClient(UDPClientOptions{Timeout: 100 * time.Millisecond, Retries: 3})
	defer c.Close()
	resp, err := c.Call(srv.Addr(), &wire.Request{Op: wire.OpPing})
	if err != nil {
		t.Fatalf("retransmission failed: %v", err)
	}
	if string(resp.Value) != "pong" {
		t.Errorf("value = %q", resp.Value)
	}
}

func TestUDPTimeoutNoServer(t *testing.T) {
	c := NewUDPClient(UDPClientOptions{Timeout: 50 * time.Millisecond, Retries: 1})
	defer c.Close()
	start := time.Now()
	_, err := c.Call("127.0.0.1:9", &wire.Request{Op: wire.OpPing})
	if err == nil {
		t.Fatal("call to dead UDP port succeeded")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("timeout took %v; retries not bounded", d)
	}
}

func TestUDPLargeRequestRejected(t *testing.T) {
	c := NewUDPClient(UDPClientOptions{})
	defer c.Close()
	_, err := c.Call("127.0.0.1:9", &wire.Request{Op: wire.OpInsert, Key: "k", Value: bytes.Repeat([]byte{1}, maxDatagram+1)})
	if err == nil {
		t.Error("oversized datagram accepted")
	}
}

func TestInprocFailureInjection(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Listen("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	c := reg.NewClient()
	if _, err := c.Call("a", &wire.Request{Op: wire.OpPing}); err != nil {
		t.Fatal(err)
	}
	reg.SetDown("a", true)
	if _, err := c.Call("a", &wire.Request{Op: wire.OpPing}); err == nil {
		t.Error("call to downed endpoint succeeded")
	}
	reg.SetDown("a", false)
	if _, err := c.Call("a", &wire.Request{Op: wire.OpPing}); err != nil {
		t.Errorf("call after revival failed: %v", err)
	}
}

func TestInprocDuplicateBind(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Listen("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Listen("a", echoHandler); err == nil {
		t.Error("duplicate bind succeeded")
	}
}

func TestInprocLatencyInjection(t *testing.T) {
	reg := NewRegistry()
	reg.Listen("a", echoHandler)
	reg.SetLatency(func(string) time.Duration { return 30 * time.Millisecond })
	c := reg.NewClient()
	start := time.Now()
	if _, err := c.Call("a", &wire.Request{Op: wire.OpPing}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("latency injection ineffective: %v", d)
	}
}

func TestInprocCloseUnblocks(t *testing.T) {
	reg := NewRegistry()
	srv, _ := reg.Listen("a", echoHandler)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if _, err := reg.NewClient().Call("a", &wire.Request{Op: wire.OpPing}); err == nil {
		t.Error("call to closed endpoint succeeded")
	}
	// Address is reusable after close.
	if _, err := reg.Listen("a", echoHandler); err != nil {
		t.Errorf("rebind after close: %v", err)
	}

	// Calls racing Close, then a re-Listen on the same address: once
	// Close returns, no handler of the closed server runs, and the new
	// server takes the calls that follow. The injected latency holds
	// each call between finding the server and entering it, where
	// Close can overtake it.
	c := reg.NewClient()
	ping := &wire.Request{Op: wire.OpPing}
	reg.SetLatency(func(string) time.Duration { return 200 * time.Microsecond })
	for round := 0; round < 20; round++ {
		var entered, running atomic.Int64
		srv, err := reg.Listen("b", func(req *wire.Request) *wire.Response {
			entered.Add(1)
			running.Add(1)
			defer running.Add(-1)
			time.Sleep(50 * time.Microsecond)
			return echoHandler(req)
		})
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						c.Call("b", ping) // unreachable once closed
					}
				}
			}()
		}
		for entered.Load() == 0 {
			time.Sleep(10 * time.Microsecond)
		}
		srv.Close()
		if n := running.Load(); n != 0 {
			t.Fatalf("round %d: %d handlers still running after Close returned", round, n)
		}
		after := entered.Load()
		time.Sleep(time.Millisecond)
		if n := entered.Load(); n != after {
			t.Fatalf("round %d: %d handlers of a closed server started after Close returned", round, n-after)
		}
		next, err := reg.Listen("b", echoHandler)
		if err != nil {
			t.Fatalf("round %d: rebind while calls race: %v", round, err)
		}
		if _, err := c.Call("b", ping); err != nil {
			t.Fatalf("round %d: call to the rebound address: %v", round, err)
		}
		close(stop)
		wg.Wait()
		next.Close()
	}

	reg.SetLatency(nil)

	// SetDown takes effect on the next call, and so does its reversal.
	if _, err := c.Call("a", ping); err != nil {
		t.Fatal(err)
	}
	reg.SetDown("a", true)
	if _, err := c.Call("a", ping); !errors.Is(err, ErrUnreachable) {
		t.Errorf("call right after SetDown(true): %v, want ErrUnreachable", err)
	}
	reg.SetDown("a", false)
	if _, err := c.Call("a", ping); err != nil {
		t.Errorf("call right after SetDown(false): %v", err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler, EventDriven)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	u, err := ListenUDP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	u.Close()
	if err := u.Close(); err != nil {
		t.Errorf("udp double close: %v", err)
	}
}

func TestMalformedFrameDropsConnection(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler, EventDriven)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Handshake with garbage; the server must drop us without
	// affecting later well-formed clients.
	c := NewTCPClient(TCPClientOptions{Timeout: time.Second})
	defer c.Close()
	raw, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte{5, 'X', 'X', 'X', 'X', 'X'})
	raw.Close()
	if _, err := c.Call(srv.Addr(), &wire.Request{Op: wire.OpPing}); err != nil {
		t.Fatalf("server unusable after malformed frame: %v", err)
	}
}

func TestLargeValueOverTCP(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler, EventDriven)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewTCPClient(TCPClientOptions{ConnCache: true})
	defer c.Close()
	big := bytes.Repeat([]byte{0xab}, 4<<20)
	resp, err := c.Call(srv.Addr(), &wire.Request{Op: wire.OpInsert, Key: "big", Value: big})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Value) != len(big)+len("echo:big:") {
		t.Errorf("big value round trip lost bytes: %d", len(resp.Value))
	}
}

func BenchmarkTransportRoundTrip(b *testing.B) {
	val := bytes.Repeat([]byte{'v'}, 132)
	configs := []struct {
		name string
		mk   func(b *testing.B) (Caller, string, func())
	}{
		{"tcp-cached", func(b *testing.B) (Caller, string, func()) {
			srv, err := ListenTCP("127.0.0.1:0", echoHandler, EventDriven)
			if err != nil {
				b.Fatal(err)
			}
			c := NewTCPClient(TCPClientOptions{ConnCache: true})
			return c, srv.Addr(), func() { c.Close(); srv.Close() }
		}},
		{"tcp-uncached", func(b *testing.B) (Caller, string, func()) {
			srv, err := ListenTCP("127.0.0.1:0", echoHandler, EventDriven)
			if err != nil {
				b.Fatal(err)
			}
			c := NewTCPClient(TCPClientOptions{ConnCache: false})
			return c, srv.Addr(), func() { c.Close(); srv.Close() }
		}},
		{"tcp-spawnreq", func(b *testing.B) (Caller, string, func()) {
			srv, err := ListenTCP("127.0.0.1:0", echoHandler, SpawnPerRequest)
			if err != nil {
				b.Fatal(err)
			}
			c := NewTCPClient(TCPClientOptions{ConnCache: true})
			return c, srv.Addr(), func() { c.Close(); srv.Close() }
		}},
		{"udp", func(b *testing.B) (Caller, string, func()) {
			srv, err := ListenUDP("127.0.0.1:0", echoHandler)
			if err != nil {
				b.Fatal(err)
			}
			c := NewUDPClient(UDPClientOptions{})
			return c, srv.Addr(), func() { c.Close(); srv.Close() }
		}},
		{"inproc", func(b *testing.B) (Caller, string, func()) {
			reg := NewRegistry()
			srv, err := reg.Listen("bench", echoHandler)
			if err != nil {
				b.Fatal(err)
			}
			return reg.NewClient(), "bench", func() { srv.Close() }
		}},
	}
	for _, cfg := range configs {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			c, addr, cleanup := cfg.mk(b)
			defer cleanup()
			req := &wire.Request{Op: wire.OpInsert, Key: "key-0000000001", Value: val}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Call(addr, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
