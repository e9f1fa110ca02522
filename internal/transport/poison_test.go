package transport

import (
	"fmt"
	"sync"
	"testing"

	"zht/internal/metrics"
	"zht/internal/wire"
)

// TestNoResponseAliasingAfterRelease is the end-to-end leak gate for
// the pooled request path: with buffer poisoning on, concurrent
// callers hammer an echo server and every caller retains each
// response's Value until the end. If the transport recycled a frame
// still referenced by a delivered response, a later op would overwrite
// the retained bytes — poisoning turns that into a deterministic
// mismatch. Run under -race to also catch the write/read race itself.
func TestNoResponseAliasingAfterRelease(t *testing.T) {
	wire.SetPoolPoison(true)
	defer wire.SetPoolPoison(false)

	transports := map[string]func() (Caller, string){
		"tcp": func() (Caller, string) {
			srv, err := ListenTCP("127.0.0.1:0", echoHandler, EventDriven)
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
			srv, err := reg.Listen("poison-node", echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			return reg.NewClient(), srv.Addr()
		},
	}
	for name, mk := range transports {
		t.Run(name, func(t *testing.T) {
			c, addr := mk()
			const workers, callsPerWorker = 8, 150
			type held struct {
				want string
				got  []byte
			}
			results := make([][]held, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < callsPerWorker; i++ {
						key := fmt.Sprintf("w%d-i%d", w, i)
						val := []byte(fmt.Sprintf("payload-%d-%d", w, i))
						resp, err := c.Call(addr, &wire.Request{Op: wire.OpLookup, Key: key, Value: val})
						if err != nil {
							t.Error(err)
							return
						}
						want := "echo:" + key + ":" + string(val)
						if string(resp.Value) != want {
							t.Errorf("immediate mismatch: got %q want %q", resp.Value, want)
							return
						}
						// Retain the response's bytes without copying:
						// the contract says they are application-owned
						// now, so nothing the transport does later may
						// touch them.
						results[w] = append(results[w], held{want: want, got: resp.Value})
					}
				}(w)
			}
			wg.Wait()
			poisoned := 0
			for _, rs := range results {
				for _, h := range rs {
					if string(h.got) != h.want {
						poisoned++
						if poisoned <= 3 {
							t.Errorf("retained response mutated after later ops: got %q want %q", h.got, h.want)
						}
					}
				}
			}
			if poisoned > 3 {
				t.Errorf("... and %d more mutated responses", poisoned-3)
			}
		})
	}
}

// TestPutFrameBufPoisonsBacking checks that the frame pool honors
// wire.SetPoolPoison like wire's own buffer pool.
func TestPutFrameBufPoisonsBacking(t *testing.T) {
	wire.SetPoolPoison(true)
	defer wire.SetPoolPoison(false)

	b := append(getFrameBuf(), "live frame"...)
	alias := b
	putFrameBuf(b)
	for i, c := range alias {
		if c != wire.PoisonByte {
			t.Fatalf("frame byte %d survived release: %#x (want poison %#x)", i, c, wire.PoisonByte)
		}
	}
}

// TestServerFramesRecycled pins the server half of the ownership
// rule from the outside: a burst of sequential calls on one cached
// connection must drive the frame pool's reuse counter, proving read
// frames go back to the pool after each handler returns (reading the
// recycled memory directly would itself violate the contract — and
// trip the race detector — so the metric is the observable).
func TestServerFramesRecycled(t *testing.T) {
	wire.SetPoolPoison(true)
	defer wire.SetPoolPoison(false)

	reg := metrics.NewRegistry()
	EnableBufMetrics(reg)
	defer EnableBufMetrics(nil)

	handler := func(req *wire.Request) *wire.Response {
		// Copy discipline per the contract; the response must not
		// alias the request's frame.
		return &wire.Response{Status: wire.StatusOK, Value: append([]byte(nil), req.Value...)}
	}
	srv, err := ListenTCP("127.0.0.1:0", handler, EventDriven)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewTCPClient(TCPClientOptions{ConnCache: true})
	defer c.Close()

	const calls = 64
	val := []byte("frame-owned bytes")
	reuseBefore := reg.Counter("zht.transport.buf.reuse").Value()
	for i := 0; i < calls; i++ {
		resp, err := c.Call(srv.Addr(), &wire.Request{Op: wire.OpInsert, Key: "k", Value: val})
		if err != nil {
			t.Fatal(err)
		}
		if string(resp.Value) != string(val) {
			t.Fatalf("call %d: got %q want %q", i, resp.Value, val)
		}
	}
	if reuse := reg.Counter("zht.transport.buf.reuse").Value() - reuseBefore; reuse == 0 {
		t.Error("frame pool reuse counter stayed at zero across a sequential burst: frames are not being recycled")
	}
}
