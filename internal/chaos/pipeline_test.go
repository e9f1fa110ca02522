package chaos

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zht/internal/transport"
	"zht/internal/wire"
)

// Pipelining under chaos: many concurrent callers share the few
// multiplexed TCP connections a destination gets (at most GOMAXPROCS),
// the server answers out of order, and the chaos layer injects delay
// and drop on top. Whatever interleaving results, every caller must
// receive the response to its own request —
// a demux bug (responses matched to the wrong sequence ID) shows up
// here as a value mismatch, not a hang.

// startEchoTCP runs a TCP server whose handler echoes the request key
// after a key-derived delay, so responses on a shared connection
// systematically overtake each other.
func startEchoTCP(t *testing.T) *transport.TCPServer {
	t.Helper()
	var echo func(req *wire.Request) *wire.Response
	echo = func(req *wire.Request) *wire.Response {
		// Detach before sleeping, or the sleep would hold the
		// connection's read loop and nothing could overtake anything.
		req.Detach()
		if req.Op == wire.OpBatch {
			subs, err := wire.DecodeOps(req.Aux)
			if err != nil {
				return &wire.Response{Status: wire.StatusError, Err: err.Error()}
			}
			rs := make([]*wire.Response, len(subs))
			for i, s := range subs {
				rs[i] = echo(s)
			}
			return wire.NewBatchResponse(rs)
		}
		// Stagger: even sequence keys answer slowly, odd ones fast.
		var d time.Duration
		if len(req.Key) > 0 && req.Key[len(req.Key)-1]%2 == 0 {
			d = 3 * time.Millisecond
		}
		time.Sleep(d)
		return &wire.Response{Status: wire.StatusOK, Value: []byte("echo:" + req.Key)}
	}
	srv, err := transport.ListenTCP("127.0.0.1:0", echo, transport.EventDriven)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestPipelinedResponsesMatchCallersUnderDelay(t *testing.T) {
	srv := startEchoTCP(t)
	tcp := transport.NewTCPClient(transport.TCPClientOptions{
		ConnCache: true,
		Timeout:   5 * time.Second,
	})
	defer tcp.Close()
	// Jittered link: request and reply legs see different injected
	// delays per call, reordering arrivals even further.
	c := Wrap(tcp, always([]Rule{
		{To: srv.Addr(), Sym: true, Latency: time.Millisecond, Jitter: 2 * time.Millisecond},
	}), Options{Seed: 11})

	const workers, perWorker = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("w%02d-i%02d", w, i)
				resp, err := c.Call(srv.Addr(), &wire.Request{Op: wire.OpLookup, Key: key})
				if err != nil {
					errs <- fmt.Errorf("%s: %v", key, err)
					return
				}
				if string(resp.Value) != "echo:"+key {
					errs <- fmt.Errorf("caller %s got response %q: demux mismatch", key, resp.Value)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := tcp.CachedConns(); n < 1 || n > runtime.GOMAXPROCS(0) {
		t.Fatalf("pipelined callers used %d connections, want 1..GOMAXPROCS shared", n)
	}
}

func TestPipelinedCallsSurviveDropsOnSharedConn(t *testing.T) {
	srv := startEchoTCP(t)
	tcp := transport.NewTCPClient(transport.TCPClientOptions{
		ConnCache: true,
		Timeout:   5 * time.Second,
	})
	defer tcp.Close()
	// 30% of requests are lost in flight; the caller gets a retriable
	// timeout. Survivors sharing the connection must still demux to
	// the right caller.
	c := Wrap(tcp, always([]Rule{
		{To: srv.Addr(), Drop: 0.3},
	}), Options{Seed: 5, LossTimeout: time.Millisecond})

	const workers, perWorker = 8, 20
	var ok, dropped atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("d%02d-i%02d", w, i)
				resp, err := c.Call(srv.Addr(), &wire.Request{Op: wire.OpLookup, Key: key})
				if err != nil {
					if !errors.Is(err, transport.ErrTimeout) && !errors.Is(err, transport.ErrUnreachable) {
						errs <- fmt.Errorf("%s: non-retriable error %v", key, err)
						return
					}
					dropped.Add(1)
					continue
				}
				if string(resp.Value) != "echo:"+key {
					errs <- fmt.Errorf("caller %s got response %q: demux mismatch after drops", key, resp.Value)
					return
				}
				ok.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ok.Load() == 0 || dropped.Load() == 0 {
		t.Fatalf("wanted a mix of outcomes, got ok=%d dropped=%d", ok.Load(), dropped.Load())
	}
}

func TestBatchEnvelopeSharesOneFaultVerdict(t *testing.T) {
	// A batch is one message: when the chaos layer drops it, every
	// sub-op fails together; when it passes, every sub-response must
	// line up with its sub-request positionally.
	srv := startEchoTCP(t)
	tcp := transport.NewTCPClient(transport.TCPClientOptions{
		ConnCache: true,
		Timeout:   5 * time.Second,
	})
	defer tcp.Close()
	c := Wrap(tcp, always([]Rule{
		{To: srv.Addr(), Drop: 0.4},
	}), Options{Seed: 3, LossTimeout: time.Millisecond})

	var delivered, lost int
	for round := 0; round < 30; round++ {
		reqs := make([]*wire.Request, 8)
		for i := range reqs {
			reqs[i] = &wire.Request{Op: wire.OpLookup, Key: fmt.Sprintf("b%02d-%d", round, i)}
		}
		rs, err := c.CallBatch(srv.Addr(), reqs)
		if err != nil {
			lost++ // whole envelope shares the verdict
			continue
		}
		delivered++
		if len(rs) != len(reqs) {
			t.Fatalf("round %d: %d sub-responses for %d sub-requests", round, len(rs), len(reqs))
		}
		for i, r := range rs {
			if string(r.Value) != "echo:"+reqs[i].Key {
				t.Fatalf("round %d sub %d: got %q, want echo of %q", round, i, r.Value, reqs[i].Key)
			}
		}
	}
	if delivered == 0 || lost == 0 {
		t.Fatalf("wanted both delivered and lost envelopes, got delivered=%d lost=%d", delivered, lost)
	}
}
