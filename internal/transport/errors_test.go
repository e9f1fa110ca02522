package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"zht/internal/wire"
)

// The transport error taxonomy: every caller maps failures onto the
// same two sentinels — ErrUnreachable for destinations that cannot
// be contacted, ErrTimeout for deadlines (including the request's
// Budget) that expire before an ack arrives. The client's failure
// detector and circuit breaker depend on this consistency.

// taxonomyTransports starts one server per transport whose handler
// blocks until release is closed, and returns short-timeout callers.
func taxonomyTransports(t *testing.T, h Handler) map[string]func() (Caller, string) {
	t.Helper()
	return map[string]func() (Caller, string){
		"tcp": func() (Caller, string) {
			srv, err := ListenTCP("127.0.0.1:0", h, EventDriven)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			c := NewTCPClient(TCPClientOptions{Timeout: 150 * time.Millisecond})
			t.Cleanup(func() { c.Close() })
			return c, srv.Addr()
		},
		"udp": func() (Caller, string) {
			srv, err := ListenUDP("127.0.0.1:0", h)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			c := NewUDPClient(UDPClientOptions{Timeout: 50 * time.Millisecond, Retries: 1})
			t.Cleanup(func() { c.Close() })
			return c, srv.Addr()
		},
		"inproc": func() (Caller, string) {
			reg := NewRegistry()
			if _, err := reg.Listen("node-a", h); err != nil {
				t.Fatal(err)
			}
			// No server Close in cleanup: a hung handler would block
			// the drain; the registry dies with the test process.
			return reg.NewClient(), "node-a"
		},
	}
}

func TestDownEndpointIsUnreachable(t *testing.T) {
	// TCP/UDP: a port nothing listens on. Inproc: an endpoint marked
	// down plus a name never bound.
	reg := NewRegistry()
	if _, err := reg.Listen("node-a", echoHandler); err != nil {
		t.Fatal(err)
	}
	reg.SetDown("node-a", true)
	cases := map[string]func() (Caller, string){
		"tcp": func() (Caller, string) {
			c := NewTCPClient(TCPClientOptions{Timeout: 200 * time.Millisecond})
			t.Cleanup(func() { c.Close() })
			return c, "127.0.0.1:1" // reserved port: dial refused
		},
		"udp": func() (Caller, string) {
			c := NewUDPClient(UDPClientOptions{Timeout: 50 * time.Millisecond, Retries: 1})
			t.Cleanup(func() { c.Close() })
			return c, "127.0.0.1:1"
		},
		"inproc-down": func() (Caller, string) {
			return reg.NewClient(), "node-a"
		},
		"inproc-unbound": func() (Caller, string) {
			return reg.NewClient(), "node-zzz"
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			c, addr := mk()
			_, err := c.Call(addr, &wire.Request{Op: wire.OpPing})
			// A dead UDP "server" may surface as ICMP port-unreachable
			// (ErrUnreachable) or as silence (ErrTimeout) depending on
			// the stack; both are down-endpoint verdicts. TCP and
			// inproc must say ErrUnreachable.
			if name == "udp" {
				if !errors.Is(err, ErrUnreachable) && !errors.Is(err, ErrTimeout) {
					t.Fatalf("got %v, want ErrUnreachable or ErrTimeout", err)
				}
				return
			}
			if !errors.Is(err, ErrUnreachable) {
				t.Fatalf("got %v, want ErrUnreachable", err)
			}
		})
	}
}

func TestHungHandlerIsTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	hang := func(req *wire.Request) *wire.Response {
		<-release
		return &wire.Response{Status: wire.StatusOK}
	}
	for name, mk := range taxonomyTransports(t, hang) {
		t.Run(name, func(t *testing.T) {
			c, addr := mk()
			// Inproc enforces deadlines only through the request
			// budget; give every transport the same one.
			req := &wire.Request{Op: wire.OpPing, Budget: uint64(100 * time.Millisecond)}
			start := time.Now()
			_, err := c.Call(addr, req)
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("got %v, want ErrTimeout", err)
			}
			if el := time.Since(start); el > 2*time.Second {
				t.Fatalf("timed out only after %v", el)
			}
		})
	}
}

func TestExpiredBudgetIsTimeout(t *testing.T) {
	var handled sync.Map
	h := func(req *wire.Request) *wire.Response {
		handled.Store(req.Key, true)
		return &wire.Response{Status: wire.StatusOK}
	}
	for name, mk := range taxonomyTransports(t, h) {
		t.Run(name, func(t *testing.T) {
			c, addr := mk()
			req := &wire.Request{Op: wire.OpInsert, Key: name, Budget: 1} // 1ns: already expired
			_, err := c.Call(addr, req)
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("got %v, want ErrTimeout", err)
			}
			if _, ran := handled.Load(name); ran {
				t.Fatal("handler ran despite expired budget")
			}
		})
	}
}
