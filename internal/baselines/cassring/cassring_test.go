package cassring

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"zht/internal/metrics"
	"zht/internal/transport"
	"zht/internal/wire"
)

func newTestClusterReg(t *testing.T, n int, opts Options) (*Cluster, *Client, *transport.Registry) {
	t.Helper()
	reg := transport.NewRegistry()
	c, err := NewCluster(n, opts, func(addr string, h transport.Handler) (transport.Listener, error) {
		return reg.Listen(addr, h)
	}, reg.NewClient())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, c.NewClient(reg.NewClient()), reg
}

func newTestCluster(t *testing.T, n int, opts Options) (*Cluster, *Client) {
	c, cl, _ := newTestClusterReg(t, n, opts)
	return c, cl
}

func TestPutGetDelete(t *testing.T) {
	_, c := newTestCluster(t, 8, Options{})
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("k")
	if err != nil || string(v) != "v" {
		t.Fatalf("Get = %q %v", v, err)
	}
	if err := c.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("get after delete: %v", err)
	}
}

func TestManyKeysAllRoutable(t *testing.T) {
	_, c := newTestCluster(t, 16, Options{})
	const n = 1000
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%05d", i)
		if err := c.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%05d", i)
		v, err := c.Get(k)
		if err != nil || string(v) != k {
			t.Fatalf("%s = %q %v", k, v, err)
		}
	}
}

// TestLogNRouting verifies the structural property the baseline
// exists for: average hops per op grows like log2(N), not O(1).
func TestLogNRouting(t *testing.T) {
	for _, n := range []int{4, 16, 64} {
		cluster, c := newTestCluster(t, n, Options{})
		const ops = 400
		for i := 0; i < ops; i++ {
			if err := c.Put(fmt.Sprintf("key-%05d", i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		avg := float64(cluster.TotalHops()) / float64(ops)
		logN := math.Log2(float64(n))
		// Greedy finger routing halves distance per hop: expect
		// ~log2(N)/2 on average, certainly within [0.2, 1.5]x log2(N)
		// and strictly > 0 for N > 2.
		if avg < 0.2*logN*0.5 || avg > 1.5*logN {
			t.Errorf("n=%d: avg hops %.2f, want Θ(log n)≈%.1f", n, avg, logN/2)
		}
		t.Logf("n=%d avg hops %.2f (log2 n = %.1f)", n, avg, logN)
	}
}

func TestLastWriteWins(t *testing.T) {
	_, c := newTestCluster(t, 4, Options{})
	if err := c.Put("k", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k", []byte("second")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("k")
	if err != nil || string(v) != "second" {
		t.Fatalf("Get = %q %v (last write must win)", v, err)
	}
}

func TestReplicationToSuccessors(t *testing.T) {
	cluster, c := newTestCluster(t, 4, Options{Replicas: 2})
	const n = 200
	for i := 0; i < n; i++ {
		if err := c.Put(fmt.Sprintf("key-%04d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for _, nd := range cluster.Nodes {
		total += nd.store.Len()
	}
	if total != 3*n {
		t.Errorf("total copies = %d, want %d", total, 3*n)
	}
}

func TestAppendUnsupported(t *testing.T) {
	// Table 1: Cassandra has no append. The server rejects it.
	cluster, _ := newTestCluster(t, 2, Options{})
	resp := cluster.Nodes[0].Handle(&wire.Request{Op: wire.OpAppend, Key: "k", Value: []byte("v")})
	if resp.Status != wire.StatusError {
		t.Errorf("append accepted: %v", resp.Status)
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	reg := transport.NewRegistry()
	listen := func(addr string, h transport.Handler) (transport.Listener, error) {
		return reg.Listen(addr, h)
	}
	c1, err := NewCluster(2, Options{DataDir: dir}, listen, reg.NewClient())
	if err != nil {
		t.Fatal(err)
	}
	cl := c1.NewClient(reg.NewClient())
	for i := 0; i < 50; i++ {
		if err := cl.Put(fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	// Restart on a fresh registry, same data dir.
	reg2 := transport.NewRegistry()
	c2, err := NewCluster(2, Options{DataDir: dir}, func(addr string, h transport.Handler) (transport.Listener, error) {
		return reg2.Listen(addr, h)
	}, reg2.NewClient())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	cl2 := c2.NewClient(reg2.NewClient())
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("k%02d", i)
		if v, err := cl2.Get(k); err != nil || string(v) != "v" {
			t.Fatalf("%s after restart = %q %v", k, v, err)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	cluster, _, reg := newTestClusterReg(t, 8, Options{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := cluster.NewClient(reg.NewClient())
			for i := 0; i < 100; i++ {
				k := fmt.Sprintf("w%d-%03d", w, i)
				if err := c.Put(k, []byte(k)); err != nil {
					t.Error(err)
					return
				}
				if v, err := c.Get(k); err != nil || string(v) != k {
					t.Errorf("%s = %q %v", k, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestDynamicJoinMovesKeys(t *testing.T) {
	cluster, c := newTestCluster(t, 4, Options{})
	const n = 400
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%05d", i)
		if err := c.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	before := 0
	for _, nd := range cluster.Nodes {
		before += nd.store.Len()
	}
	joined, err := cluster.Join()
	if err != nil {
		t.Fatal(err)
	}
	if joined.store.Len() == 0 {
		t.Error("joined node received no keys")
	}
	after := 0
	for _, nd := range cluster.Nodes {
		after += nd.store.Len()
	}
	if after != before {
		t.Errorf("key count changed across join: %d -> %d", before, after)
	}
	// Every key remains routable after the join.
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%05d", i)
		v, err := c.Get(k)
		if err != nil || string(v) != k {
			t.Fatalf("%s after join = %q %v", k, v, err)
		}
	}
	// Writes after the join route to the converged ring.
	if err := c.Put("post-join", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Get("post-join"); err != nil || string(v) != "v" {
		t.Fatalf("post-join = %q %v", v, err)
	}
}

func TestRepeatedJoins(t *testing.T) {
	cluster, c := newTestCluster(t, 2, Options{})
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%03d", i), []byte("v"))
	}
	for j := 0; j < 4; j++ {
		if _, err := cluster.Join(); err != nil {
			t.Fatalf("join %d: %v", j, err)
		}
	}
	if len(cluster.Nodes) != 6 {
		t.Errorf("cluster size = %d", len(cluster.Nodes))
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%03d", i)
		if v, err := c.Get(k); err != nil || string(v) != "v" {
			t.Fatalf("%s after 4 joins = %q %v", k, v, err)
		}
	}
}

func TestEmptyClusterRejected(t *testing.T) {
	reg := transport.NewRegistry()
	if _, err := NewCluster(0, Options{}, func(addr string, h transport.Handler) (transport.Listener, error) {
		return reg.Listen(addr, h)
	}, reg.NewClient()); err == nil {
		t.Error("empty cluster accepted")
	}
}

// TestRingReturnsPooledResponses: a node answers only with responses
// drawn from the pool, and the client, the forwarding hops and the
// replica legs return every response they get. So after a mix of puts,
// hits, misses, deletes and unsupported ops, sent through the ring over
// the in-process transport (which returns each handler response to the
// pool) and to each node's Handle directly, the pool's gets and puts
// are level.
func TestRingReturnsPooledResponses(t *testing.T) {
	cluster, c := newTestCluster(t, 8, Options{Replicas: 2})
	reg := metrics.NewRegistry()
	wire.EnablePoolMetrics(reg)
	defer wire.EnablePoolMetrics(nil)
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("pool-%03d", i)
		if err := c.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if v, err := c.Get(k); err != nil || string(v) != "v" {
			t.Fatalf("Get(%s) = %q, %v", k, v, err)
		}
		if _, err := c.Get(k + "-absent"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get of an absent key: %v", err)
		}
		if i%3 == 0 {
			if err := c.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, n := range cluster.Nodes {
		for _, req := range []*wire.Request{
			{Op: wire.OpPing},
			{Op: wire.OpAppend, Key: "k"},
			{Op: wire.OpReplicate, Key: "direct", Value: []byte("v"), Aux: []byte{byte(wire.OpInsert)}},
			{Op: wire.OpReplicate, Key: "direct", Aux: []byte{byte(wire.OpLookup)}},
			{Op: wire.OpReplicate, Key: "direct", Aux: []byte{byte(wire.OpRemove)}},
			{Op: wire.OpReplicate, Key: "direct", Aux: []byte{byte(wire.OpRemove)}},
		} {
			wire.PutResponse(n.Handle(req))
		}
	}
	gets, puts := reg.Counter("zht.wire.pool.gets").Value(), reg.Counter("zht.wire.pool.puts").Value()
	if gets == 0 || gets != puts {
		t.Fatalf("pool gets %d, puts %d after the ring's ops, want equal and non-zero", gets, puts)
	}
}
