package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zht/internal/transport"
	"zht/internal/wire"
)

// guardCaller delivers calls straight to the peers' handlers and fails
// the test when one is issued while detached is down: a TCP server
// runs Handle on the connection's reader, so an instance must have
// called req.Detach() before it calls out (transport.Handler).
type guardCaller struct {
	t        *testing.T
	detached atomic.Bool
	mu       sync.Mutex
	handlers map[string]transport.Handler
}

func (g *guardCaller) Call(addr string, req *wire.Request) (*wire.Response, error) {
	if !g.detached.Load() {
		g.t.Errorf("%s to %s issued from a handler that had not detached", req.Op, addr)
	}
	g.mu.Lock()
	h := g.handlers[addr]
	g.mu.Unlock()
	r := *req
	r.SetDetach(nil) // the hook never crosses the wire
	return h(&r), nil
}

func (g *guardCaller) CallBatch(addr string, reqs []*wire.Request) ([]*wire.Response, error) {
	return transport.EnvelopeCallBatch(g, addr, reqs)
}

func (g *guardCaller) Close() error { return nil }

// guarded boots n instances wired through a guardCaller and returns a
// serve function that runs one request through instance 0's Handle
// with a Detach hook raising the flag, reporting the response and
// whether the handler detached.
func guarded(t *testing.T, cfg Config, n int) (*Deployment, func(*wire.Request) (*wire.Response, bool)) {
	t.Helper()
	cfg.AntiEntropy = -1 // no background callers; a stable ring never gossips
	g := &guardCaller{t: t, handlers: make(map[string]transport.Handler)}
	d, err := Bootstrap(cfg, InprocEndpoints(n), func(addr string, h transport.Handler) (transport.Listener, error) {
		g.mu.Lock()
		g.handlers[addr] = h
		g.mu.Unlock()
		return nopListener{addr}, nil
	}, g)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		g.detached.Store(true) // shutdown traffic is not under test
		d.Close()
	})
	serve := func(req *wire.Request) (*wire.Response, bool) {
		g.detached.Store(false)
		req.SetDetach(func() { g.detached.Store(true) })
		resp := d.Instance(0).Handle(req)
		d.Drain() // broadcast forwards run on their own goroutines
		return resp, g.detached.Load()
	}
	return d, serve
}

// ownedKey returns a key whose partition instance 0 owns.
func ownedKey(t *testing.T, in *Instance) (string, int) {
	t.Helper()
	table := in.tableRef()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("inline-%d", i)
		if p := table.Partition(in.hashf(k)); table.OwnerOf(p).ID == in.ID() {
			return k, p
		}
	}
	t.Fatal("no key owned by instance 0")
	return "", 0
}

func TestInlineHandlerNeverCallsOut(t *testing.T) {
	d, serve := guarded(t, Config{NumPartitions: 16, Replicas: 1}, 2)
	in := d.Instance(0)
	key, p := ownedKey(t, in)

	mustDetach := func(name string, req *wire.Request, want wire.Status) {
		t.Helper()
		resp, detached := serve(req)
		if resp.Status != want {
			t.Errorf("%s: status %s (%s), want %s", name, resp.Status, resp.Err, want)
		}
		if !detached {
			t.Errorf("%s was served without detaching", name)
		}
	}
	mustDetach("replicated write", &wire.Request{Op: wire.OpInsert, Key: key, Value: []byte("v")}, wire.StatusOK)
	batch := wire.NewBatchRequest([]*wire.Request{
		{Op: wire.OpInsert, Key: key, Value: []byte("v2")},
		{Op: wire.OpAppend, Key: key, Value: []byte("+")},
	})
	mustDetach("replicated batch", batch, wire.StatusOK)
	mustDetach("batch with a non-KV sub-op", wire.NewBatchRequest([]*wire.Request{
		{Op: wire.OpLookup, Key: key},
		{Op: wire.OpPing},
	}), wire.StatusOK)
	mustDetach("batch with a replicated mutation", wire.NewBatchRequest([]*wire.Request{
		{Op: wire.OpLookup, Key: key},
		{Op: wire.OpInsert, Key: key, Value: []byte("v2+")},
	}), wire.StatusOK)
	mustDetach("broadcast", &wire.Request{Op: wire.OpBroadcast, Key: "b", Value: []byte("x"), Partition: 0}, wire.StatusOK)
	// The accused answers the verification ping, so the report is refused.
	mustDetach("report", &wire.Request{Op: wire.OpReport, Key: string(d.Instance(1).ID())}, wire.StatusError)

	if resp, detached := serve(&wire.Request{Op: wire.OpLookup, Key: key}); detached || string(resp.Value) != "v2+" {
		t.Errorf("plain lookup: detached=%v value=%q, want inline and %q", detached, resp.Value, "v2+")
	}
	lookups := func() *wire.Request {
		return wire.NewBatchRequest([]*wire.Request{{Op: wire.OpLookup, Key: key}, {Op: wire.OpLookup, Key: key}})
	}
	resp, detached := serve(lookups())
	if detached {
		t.Error("lookup-only batch at r=1 detached")
	}
	for i, r := range batchSubs(t, resp, 2) {
		if r.Status != wire.StatusOK || string(r.Value) != "v2+" {
			t.Errorf("lookup-only batch slot %d: %s %q, want ok %q", i, r.Status, r.Value, "v2+")
		}
	}

	// A lookup, alone or in an envelope, that meets a migrating
	// partition must detach before it queues behind the gate, and is
	// served once the migration rolls back.
	for _, c := range []struct {
		name string
		req  *wire.Request
	}{
		{"lookup", &wire.Request{Op: wire.OpLookup, Key: key}},
		{"lookup-only batch", lookups()},
	} {
		mustDetach("migrate-lock", &wire.Request{Op: wire.OpMigrate, Partition: int64(p), Aux: migrateLockMarker}, wire.StatusOK)
		done := make(chan *wire.Response, 1)
		var detached atomic.Bool
		go func() {
			c.req.SetDetach(func() { detached.Store(true) })
			done <- in.Handle(c.req)
		}()
		for deadline := time.Now().Add(5 * time.Second); !detached.Load(); {
			if time.Now().After(deadline) {
				t.Fatalf("%s behind a migrating partition never detached", c.name)
			}
			time.Sleep(time.Millisecond)
		}
		select {
		case resp := <-done:
			t.Fatalf("%s answered %s while its partition was locked", c.name, resp.Status)
		default:
		}
		in.completeMigration(p, "", false)
		resp := <-done
		if c.req.Op == wire.OpBatch {
			resp = batchSubs(t, resp, 2)[0]
		}
		if resp.Status != wire.StatusOK || string(resp.Value) != "v2+" {
			t.Errorf("queued %s: %s %q after rollback", c.name, resp.Status, resp.Value)
		}
	}
}

// batchSubs decodes an envelope response's n sub-responses.
func batchSubs(t *testing.T, env *wire.Response, n int) []*wire.Response {
	t.Helper()
	rs, err := wire.UnpackBatchResponses(env, n)
	if err != nil {
		t.Fatalf("batch response: %v", err)
	}
	return rs
}

func TestUnreplicatedWritesServeInline(t *testing.T) {
	d, serve := guarded(t, Config{NumPartitions: 16, Replicas: 0}, 2)
	key, p := ownedKey(t, d.Instance(0))
	for _, req := range []*wire.Request{
		{Op: wire.OpInsert, Key: key, Value: []byte("v")},
		{Op: wire.OpAppend, Key: key, Value: []byte("+")},
		{Op: wire.OpCas, Key: key, Aux: []byte("v+"), Value: []byte("w")},
		{Op: wire.OpLookup, Key: key},
		{Op: wire.OpRemove, Key: key},
		{Op: wire.OpReplicate, Key: key, Value: []byte("r"), Partition: int64(p), Version: 1,
			Aux: encodeReplicaAux(wire.OpInsert)},
	} {
		if resp, detached := serve(req); detached || resp.Status != wire.StatusOK {
			t.Errorf("%s at r=0: detached=%v status=%s (%s), want inline OK", req.Op, detached, resp.Status, resp.Err)
		}
	}
	// A mixed envelope is served inline like its sub-ops alone.
	mixed := []*wire.Request{
		{Op: wire.OpInsert, Key: key, Value: []byte("v")},
		{Op: wire.OpAppend, Key: key, Value: []byte("+")},
		{Op: wire.OpLookup, Key: key},
		{Op: wire.OpCas, Key: key, Aux: []byte("v+"), Value: []byte("w")},
		{Op: wire.OpRemove, Key: key},
		{Op: wire.OpReplicate, Key: key, Value: []byte("r"), Partition: int64(p), Version: 1,
			Aux: encodeReplicaAux(wire.OpInsert)},
	}
	resp, detached := serve(wire.NewBatchRequest(mixed))
	if detached {
		t.Error("mixed batch at r=0 detached")
	}
	rs := batchSubs(t, resp, len(mixed))
	for i, r := range rs {
		if r.Status != wire.StatusOK {
			t.Errorf("mixed batch slot %d (%s): %s (%s), want OK", i, mixed[i].Op, r.Status, r.Err)
		}
	}
	if string(rs[2].Value) != "v+" {
		t.Errorf("mixed batch lookup = %q, want %q", rs[2].Value, "v+")
	}
}

func TestHandlerSwitchPassesRequestThrough(t *testing.T) {
	var hs HandlerSwitch
	var got *wire.Request
	hs.Set(func(r *wire.Request) *wire.Response { got = r; r.Detach(); return &wire.Response{} })
	detached := false
	req := &wire.Request{Op: wire.OpPing}
	req.SetDetach(func() { detached = true })
	if hs.Handle(req); got != req || !detached {
		t.Errorf("HandlerSwitch handed on %p (want %p), Detach reached transport: %v", got, req, detached)
	}
}
