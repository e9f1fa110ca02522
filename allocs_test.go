package zht_test

import (
	"fmt"
	"testing"

	"zht"
	"zht/internal/core"
	"zht/internal/novoht"
	"zht/internal/transport"
	"zht/internal/wire"
)

// Hot-path allocation budgets, enforced by TestHotPathAllocBudget
// (run via `make bench-allocs`, which `make verify` includes). The
// budgets are the analytical floor of the pooled request path plus
// zero slack, so any new per-op allocation on the loopback TCP path
// fails the gate:
//
//   - Lookup = 2 allocs/op: the client copies the value out of its
//     kept read frame into an allocation of exactly its size (one make
//     per op, by design — the value outlives the transport), and the
//     server materializes the key as a Go string (decode cannot alias
//     a string into the frame). Because that copy is right-sized the
//     lookup also has a bytes budget: the 132 B value plus the key
//     string round up to 160 B/op, and 512 leaves room for size-class
//     changes while still failing if a lookup walks off with a whole
//     4 KiB read frame.
//   - Insert = 2 allocs/op: the server key string as above; mutation
//     acks carry no payload, so the client reuses its read frame. The
//     second slot is headroom for the runtime's occasional timer and
//     channel internals rather than a budgeted allocation.
//   - Batched insert = 72 allocs per 64-op batch (1.125 per sub-op):
//     the server's per-op decode (key strings, slice headers for the
//     grouped apply) and the client's result slice, amortized across
//     the batch. The client groups sub-ops in pooled flat scratch and
//     starts its envelope without a goroutine, so nothing on its side
//     is paid per destination. Pinned with zero slack.
//
// See DESIGN.md §11 for the ownership rules that make the rest of the
// path allocation-free, and EXPERIMENTS.md for measured numbers.
const (
	lookupAllocBudget     = 2
	lookupBytesBudget     = 512
	insertAllocBudget     = 2
	batchPerOpAllocBudget = 72.0 / allocBenchBatch
	allocBenchBatch       = 64 // sub-ops per batched-insert envelope
	allocBenchKeys        = 512
	allocBenchValueBytes  = 132 // the paper's micro-benchmark value size
)

// In-process budgets: the same single-instance lookup and insert over
// transport.Registry, where no socket hides the runtime's cost and the
// buffer pools are crossed several times per op. Pinned at the measured
// allocs/op, so a pool change that starts allocating per op fails here
// rather than disappearing into throughput noise:
//
//   - Lookup = 3: the server key string, and the response encoding,
//     which grows from nil twice (header, then value). The caller's
//     decoded response aliases that encoding, so it outlives the call
//     like the TCP client's right-sized value copy.
//   - Insert = 3: the key string and the same encoding, grown for the
//     header and then for a varint field.
const (
	inprocLookupAllocBudget = 3
	inprocInsertAllocBudget = 3
)

// quorumLookupAllocBudget is the gate for the QUORUM read path at
// Replicas=1 (two instances on loopback TCP, copies=2). The client
// starts the replica's probe, reads the owner on its own goroutine and
// then awaits the probe: no goroutine, channel or vote slice per read,
// the probe's call handle lives on the stack and its request comes
// from the pool. What is left is paid per copy or by the routing table:
//
//   - the two response values: each answering copy's value is copied
//     out of its transport frame into application-owned memory
//     (2 allocs; same "value outlives the transport" rule as the ONE
//     lookup's single alloc),
//   - the server-side key strings on both instances (one per copy, as
//     in the ONE budget),
//   - the replica set ring.Table.ReplicasOf builds for the partition.
//
// Pinned at that floor, 5 allocs/op (12 while each read spawned a
// goroutine per copy).
const quorumLookupAllocBudget = 5

// batchR1PerOpAllocBudget is the batched-insert gate on the same
// Replicas=1 deployment, per sub-op. On top of the unreplicated path's
// key string and envelope slices, each sub-op's replica leg costs the
// replica its own key string and the primary the leg's one-byte
// replicated-op Aux, and each server envelope pays for exactly one
// replica round trip — its legs ride one envelope per destination.
// Pinned with zero slack at the measured 225 allocs per 64-op batch,
// so a replica round trip per partition (~18 per sub-op) fails it.
const batchR1PerOpAllocBudget = 225.0 / allocBenchBatch

// appendAccumulatedBytes is the value size at which the append case
// checks that the partition store's own allocations do not grow with
// the value: a replicated append reads the whole value into caller
// scratch and writes it back (core's applyPrimary), and the store's
// digest upkeep must hash without copying the pre-image.
const appendAccumulatedBytes = 64 << 10

// storeAppendAllocs reports the partition store's allocations per
// primary-path append on a key already holding base bytes: GetAppendV
// into reused scratch, the delta appended, PutV of the whole value —
// plus one engine-level Append. The store is opened the way an
// instance opens an in-memory partition.
func storeAppendAllocs(tb testing.TB, base int) float64 {
	s, err := novoht.Open(novoht.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	if err := s.PutV("dir", make([]byte, base), 1); err != nil {
		tb.Fatal(err)
	}
	delta := make([]byte, 16)
	scratch := make([]byte, 0, 2*base+4096)
	ver := uint64(1)
	return testing.AllocsPerRun(200, func() {
		cur, _, _, err := s.GetAppendV(scratch[:0], "dir")
		if err != nil {
			tb.Fatal(err)
		}
		ver++
		if err := s.PutV("dir", append(cur, delta...), ver); err != nil {
			tb.Fatal(err)
		}
		if err := s.Append("dir", delta); err != nil {
			tb.Fatal(err)
		}
	})
}

// benchTCPClient boots a single-instance deployment on loopback TCP —
// the configuration the alloc budgets are defined against — with every
// background allocator disabled: no replicas, no anti-entropy, no
// gossip, no op-deadline timers, no metrics. Keys are pre-inserted so
// insert benchmarks measure the overwrite path (a steady-state store
// neither grows nor allocates).
func benchTCPClient(tb testing.TB) (*zht.Client, []string, func()) {
	tb.Helper()
	cfg := zht.Config{
		NumPartitions:  64,
		Replicas:       0,
		OpDeadline:     -1, // disable: deadline timers cost allocations
		GossipCooldown: -1,
		AntiEntropy:    -1,
	}
	caller := zht.NewTCPCaller()
	hs := &zht.HandlerSwitch{}
	ln, err := zht.ListenTCP("127.0.0.1:0", hs.Handle)
	if err != nil {
		tb.Fatal(err)
	}
	eps := []zht.Endpoint{{Addr: ln.Addr(), Node: "n0"}}
	d, err := zht.Bootstrap(cfg, eps, func(addr string, h transport.Handler) (transport.Listener, error) {
		hs.Set(h)
		return nopListener{addr}, nil
	}, caller)
	if err != nil {
		ln.Close()
		tb.Fatal(err)
	}
	c, err := zht.NewClientFromSeed(cfg, eps[0].Addr, caller)
	if err != nil {
		d.Close()
		ln.Close()
		tb.Fatal(err)
	}
	cleanup := func() {
		d.Close()
		ln.Close()
		caller.Close()
	}
	return c, preloadAllocKeys(tb, c, zht.ConsistencyDefault), cleanup
}

// benchInprocClient boots benchTCPClient's deployment on the in-process
// transport instead of loopback TCP.
func benchInprocClient(tb testing.TB) (*zht.Client, []string, func()) {
	tb.Helper()
	cfg := zht.Config{
		NumPartitions:  64,
		Replicas:       0,
		OpDeadline:     -1,
		GossipCooldown: -1,
		AntiEntropy:    -1,
	}
	d, _, err := zht.BootstrapInproc(cfg, 1)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := d.NewClient()
	if err != nil {
		d.Close()
		tb.Fatal(err)
	}
	return c, preloadAllocKeys(tb, c, zht.ConsistencyDefault), func() { d.Close() }
}

// preloadAllocKeys inserts allocBenchKeys keys at level so later
// inserts measure the overwrite path.
func preloadAllocKeys(tb testing.TB, c *zht.Client, level zht.Consistency) []string {
	tb.Helper()
	keys := make([]string, allocBenchKeys)
	val := make([]byte, allocBenchValueBytes)
	for i := range keys {
		keys[i] = fmt.Sprintf("alloc-key-%06d", i)
		if err := c.InsertWith(keys[i], val, level); err != nil {
			tb.Fatal(err)
		}
	}
	return keys
}

// benchTCPQuorumClient boots a TWO-instance deployment on loopback
// TCP with Replicas:1 — the smallest topology where a QUORUM read
// actually fans out (owner + one replica, need both). Background
// allocators are disabled as in benchTCPClient; keys are pre-inserted
// at ALL so both copies answer FOUND with equal versions (the
// steady state: no read-repair legs fire).
func benchTCPQuorumClient(tb testing.TB) (*zht.Client, []string, func()) {
	tb.Helper()
	cfg := zht.Config{
		NumPartitions:  64,
		Replicas:       1,
		OpDeadline:     -1,
		GossipCooldown: -1,
		AntiEntropy:    -1,
	}
	caller := zht.NewTCPCaller()
	const n = 2
	var (
		lns []transport.Listener
		hss []*zht.HandlerSwitch
		eps []zht.Endpoint
	)
	for i := 0; i < n; i++ {
		hs := &zht.HandlerSwitch{}
		ln, err := zht.ListenTCP("127.0.0.1:0", hs.Handle)
		if err != nil {
			tb.Fatal(err)
		}
		lns = append(lns, ln)
		hss = append(hss, hs)
		eps = append(eps, zht.Endpoint{Addr: ln.Addr(), Node: fmt.Sprintf("n%d", i)})
	}
	d, err := zht.Bootstrap(cfg, eps, func(addr string, h transport.Handler) (transport.Listener, error) {
		for i := range eps {
			if eps[i].Addr == addr {
				hss[i].Set(h)
			}
		}
		return nopListener{addr}, nil
	}, caller)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := zht.NewClientFromSeed(cfg, eps[0].Addr, caller)
	if err != nil {
		d.Close()
		tb.Fatal(err)
	}
	cleanup := func() {
		d.Close()
		for _, ln := range lns {
			ln.Close()
		}
		caller.Close()
	}
	return c, preloadAllocKeys(tb, c, zht.ConsistencyAll), cleanup
}

func benchQuorumLookupAllocs(c *zht.Client, keys []string) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.LookupWith(keys[i%len(keys)], zht.ConsistencyQuorum); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchLookupAllocs(c *zht.Client, keys []string) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Lookup(keys[i%len(keys)]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchInsertAllocs(c *zht.Client, keys []string) func(b *testing.B) {
	val := make([]byte, allocBenchValueBytes)
	return func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Insert(keys[i%len(keys)], val); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchBatchInsertAllocs(c *zht.Client, keys []string) func(b *testing.B) {
	val := make([]byte, allocBenchValueBytes)
	ops := make([]core.BatchOp, allocBenchBatch)
	for i := range ops {
		ops[i] = core.BatchOp{Op: wire.OpInsert, Key: keys[i%len(keys)], Value: val}
	}
	return func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rs, err := c.Batch(ops)
			if err != nil {
				b.Fatal(err)
			}
			for j := range rs {
				if rs[j].Err != nil {
					b.Fatal(rs[j].Err)
				}
			}
		}
	}
}

// BenchmarkHotPathAllocs measures the end-to-end loopback TCP path the
// alloc gate budgets: run with -benchmem to see allocs/op.
func BenchmarkHotPathAllocs(b *testing.B) {
	c, keys, cleanup := benchTCPClient(b)
	defer cleanup()
	b.Run("lookup", benchLookupAllocs(c, keys))
	b.Run("insert", benchInsertAllocs(c, keys))
	b.Run("batch-insert", benchBatchInsertAllocs(c, keys))
	qc, qkeys, qcleanup := benchTCPQuorumClient(b)
	defer qcleanup()
	b.Run("quorum-lookup", benchQuorumLookupAllocs(qc, qkeys))
	b.Run("batch-insert-r1", benchBatchInsertAllocs(qc, qkeys))
	ic, ikeys, icleanup := benchInprocClient(b)
	defer icleanup()
	b.Run("inproc-lookup", benchLookupAllocs(ic, ikeys))
	b.Run("inproc-insert", benchInsertAllocs(ic, ikeys))
}

// TestHotPathAllocBudget is the allocs/op regression gate (`make
// bench-allocs`): it benchmarks the loopback hot path in-process and
// fails if any op exceeds its budget. Skipped under the race detector
// (instrumentation allocates) and in -short runs.
func TestHotPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc budgets are meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("alloc gate needs full benchmark iterations")
	}
	c, keys, cleanup := benchTCPClient(t)
	defer cleanup()

	// Warm the pools and the connection cache before measuring: the
	// first operations populate freelists, grow the in-flight map, and
	// dial the connection, all of which allocate once.
	for i := 0; i < 2*allocBenchKeys; i++ {
		if _, err := c.Lookup(keys[i%len(keys)]); err != nil {
			t.Fatal(err)
		}
	}

	check := func(name string, got, budget float64) {
		t.Logf("%s: %.2f/op (budget %.3g)", name, got, budget)
		if got > budget {
			t.Errorf("%s exceeds budget: %.2f > %.3g per op", name, got, budget)
		}
	}
	r := testing.Benchmark(benchLookupAllocs(c, keys))
	check("lookup allocs", float64(r.AllocsPerOp()), lookupAllocBudget)
	check("lookup bytes", float64(r.AllocedBytesPerOp()), lookupBytesBudget)
	r = testing.Benchmark(benchInsertAllocs(c, keys))
	check("insert allocs", float64(r.AllocsPerOp()), insertAllocBudget)
	r = testing.Benchmark(benchBatchInsertAllocs(c, keys))
	perOp := float64(r.AllocsPerOp()) / allocBenchBatch
	check("batch-insert allocs", perOp, batchPerOpAllocBudget)

	// The QUORUM read path has its own (structurally higher) floor —
	// see quorumLookupAllocBudget for the breakdown. Benchmarked on a
	// separate two-instance deployment: fan-out needs a replica.
	qc, qkeys, qcleanup := benchTCPQuorumClient(t)
	defer qcleanup()
	for i := 0; i < 2*allocBenchKeys; i++ {
		if _, err := qc.LookupWith(qkeys[i%len(qkeys)], zht.ConsistencyQuorum); err != nil {
			t.Fatal(err)
		}
	}
	r = testing.Benchmark(benchQuorumLookupAllocs(qc, qkeys))
	check("quorum-lookup allocs", float64(r.AllocsPerOp()), quorumLookupAllocBudget)
	r = testing.Benchmark(benchBatchInsertAllocs(qc, qkeys))
	check("batch-insert-r1 allocs", float64(r.AllocsPerOp())/allocBenchBatch, batchR1PerOpAllocBudget)

	// The same lookup and insert in process: nothing but the codec round
	// trip and the buffer pools between client and instance.
	ic, ikeys, icleanup := benchInprocClient(t)
	defer icleanup()
	for i := 0; i < 2*allocBenchKeys; i++ {
		if _, err := ic.Lookup(ikeys[i%len(ikeys)]); err != nil {
			t.Fatal(err)
		}
	}
	r = testing.Benchmark(benchLookupAllocs(ic, ikeys))
	check("inproc-lookup allocs", float64(r.AllocsPerOp()), inprocLookupAllocBudget)
	r = testing.Benchmark(benchInsertAllocs(ic, ikeys))
	check("inproc-insert allocs", float64(r.AllocsPerOp()), inprocInsertAllocBudget)

	// The store side of an append costs the same allocations at 64 KiB
	// accumulated as at the paper's 132-byte value.
	check("store append allocs at 64 KiB", storeAppendAllocs(t, appendAccumulatedBytes),
		storeAppendAllocs(t, allocBenchValueBytes))
}
