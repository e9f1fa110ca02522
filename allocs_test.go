package zht_test

import (
	"fmt"
	"testing"

	"zht"
	"zht/internal/core"
	"zht/internal/figures"
	"zht/internal/novoht"
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
//   - Batched insert = 66 allocs per 64-op batch (1.03 per sub-op):
//     the server's key string per sub-op, and per envelope the
//     client's result slice. Sub-requests and sub-responses live by
//     value in one pooled slab on each side, the client groups sub-ops
//     in pooled flat scratch and starts its envelope without a
//     goroutine, and the server serves an unreplicated envelope on the
//     connection's read loop without detaching, so nothing else is paid
//     per sub-op or per envelope. Pinned with zero slack (72 while the
//     envelope's request and response slices were allocated per call
//     and every envelope detached).
//
// See DESIGN.md §11 for the ownership rules that make the rest of the
// path allocation-free, and EXPERIMENTS.md for measured numbers.
const (
	lookupAllocBudget     = 2
	lookupBytesBudget     = 512
	insertAllocBudget     = 2
	batchPerOpAllocBudget = 66.0 / allocBenchBatch
	allocBenchBatch       = 64 // sub-ops per batched-insert envelope
	allocBenchKeys        = 512
	allocBenchValueBytes  = 132 // the paper's micro-benchmark value size
)

// In-process budgets: the same single-instance lookup and insert over
// transport.Registry, where no socket hides the runtime's cost and the
// buffer pools are crossed several times per op. A call copies its
// request into a pooled struct and buffer and its response into a
// pooled struct (wire.CopyRequest, wire.CopyResponse); the request's
// Key is shared, not rebuilt as a string. Pinned at the measured
// allocs/op, so a pool change that starts allocating per op fails here
// rather than disappearing into throughput noise:
//
//   - Lookup = 1: the response's value copy, allocated at its size. It
//     outlives the call like the TCP client's right-sized value copy.
//   - Insert = 0: the ack carries no value or table, so nothing is
//     allocated (2 each while a call encoded and decoded both messages:
//     the server key string and the response encoding).
const (
	inprocLookupAllocBudget = 1
	inprocInsertAllocBudget = 0
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

// insertR1AllocBudget is the single-insert gate on the same
// Replicas=1 deployment. The owner runs the insert as a batch of one,
// and its one replica leg goes out as a plain call, not an envelope:
//
//   - the key string on each instance, owner and replica (one per
//     copy, as in the insert budget),
//   - the leg's one-byte replicated-op Aux,
//   - the replica set ring.Table.ReplicasOf builds for the partition,
//   - the owner connection's detach: the write waits on its replica
//     leg, so the TCP server hands reading to a fresh goroutine (the
//     detach closure, its flag and the goroutine's closure: 3).
//
// Pinned with zero slack at the measured 7 allocs/op, so a leg copied
// to the heap, or a leg response dropped instead of recycled, fails it.
const insertR1AllocBudget = 7

// batchR1PerOpAllocBudget is the batched-insert gate on the same
// Replicas=1 deployment, per sub-op. On top of the unreplicated path's
// key string and result slice, each sub-op's replica leg costs the
// replica its own key string and the primary the leg's one-byte
// replicated-op Aux, and each server envelope pays for exactly one
// replica round trip — its legs ride one envelope per destination,
// which the replica serves on its read loop. The client envelope
// detaches on the primary (it waits on that round trip). Pinned with
// zero slack at the measured 207 allocs per 64-op batch (225 before
// envelopes lived in slabs and replica-leg envelopes stayed inline),
// so a replica round trip per partition (~18 per sub-op) fails it.
const batchR1PerOpAllocBudget = 207.0 / allocBenchBatch

// appendAccumulatedBytes is the value size at which the append case
// checks that the partition store's own allocations do not grow with
// the value: a replicated append copies the accumulated value into
// caller scratch for its replica leg (core's applyMutation), and the
// store's digest upkeep must hash without copying the pre-image.
const appendAccumulatedBytes = 64 << 10

// storeAppendAllocs reports the partition store's allocations per
// primary-path append pair on a key already holding base bytes: one
// replicated AppendV, which copies the accumulated value into reused
// scratch, and one unreplicated AppendV, which copies nothing. The
// store is opened the way an instance opens an in-memory partition.
func storeAppendAllocs(tb testing.TB, base int) float64 {
	s, err := novoht.Open(novoht.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	if _, err := s.PutV("dir", make([]byte, base), 1); err != nil {
		tb.Fatal(err)
	}
	delta := make([]byte, 16)
	scratch := make([]byte, 0, 2*base+4096)
	ver := uint64(1)
	return testing.AllocsPerRun(200, func() {
		ver++
		if _, _, err := s.AppendV(scratch[:0], "dir", delta, ver); err != nil {
			tb.Fatal(err)
		}
		ver++
		if _, _, err := s.AppendV(nil, "dir", delta, ver); err != nil {
			tb.Fatal(err)
		}
	})
}

// benchTCPClient boots a single-instance deployment on loopback TCP —
// the configuration the alloc budgets are defined against — with every
// background allocator disabled: no replicas, no anti-entropy, no
// op-deadline timers, no metrics. Gossip stays on: on a ring that does
// not change it never pulls. Keys are pre-inserted so insert benchmarks
// measure the overwrite path (a steady-state store neither grows nor
// allocates).
func benchTCPClient(tb testing.TB) (*zht.Client, []string, func()) {
	tb.Helper()
	c, cleanup := bootTCPCluster(tb, zht.Config{
		NumPartitions: 64,
		Replicas:      0,
		OpDeadline:    -1, // disable: deadline timers cost allocations
		AntiEntropy:   -1,
	}, 1)
	return c, preloadAllocKeys(tb, c, zht.ConsistencyDefault), cleanup
}

// benchInprocClient boots benchTCPClient's deployment on the in-process
// transport instead of loopback TCP.
func benchInprocClient(tb testing.TB) (*zht.Client, []string, func()) {
	tb.Helper()
	cfg := zht.Config{
		NumPartitions: 64,
		Replicas:      0,
		OpDeadline:    -1,
		AntiEntropy:   -1,
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
	c, cleanup := bootTCPCluster(tb, zht.Config{
		NumPartitions: 64,
		Replicas:      1,
		OpDeadline:    -1,
		AntiEntropy:   -1,
	}, 2)
	return c, preloadAllocKeys(tb, c, zht.ConsistencyAll), cleanup
}

// bootTCPCluster boots n instances of cfg on loopback TCP with a
// caching caller (figures.NetDeployment) and returns a client seeded
// from the first.
func bootTCPCluster(tb testing.TB, cfg zht.Config, n int) (*zht.Client, func()) {
	tb.Helper()
	d, cleanup, caller, err := figures.NetDeployment(n, cfg, "tcp-cache")
	if err != nil {
		tb.Fatal(err)
	}
	c, err := zht.NewClientFromSeed(cfg, d.Instance(0).Addr(), caller)
	if err != nil {
		cleanup()
		tb.Fatal(err)
	}
	return c, cleanup
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
	b.Run("insert-r1", benchInsertAllocs(qc, qkeys))
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
	r = testing.Benchmark(benchInsertAllocs(qc, qkeys))
	check("insert-r1 allocs", float64(r.AllocsPerOp()), insertR1AllocBudget)
	r = testing.Benchmark(benchBatchInsertAllocs(qc, qkeys))
	check("batch-insert-r1 allocs", float64(r.AllocsPerOp())/allocBenchBatch, batchR1PerOpAllocBudget)

	// The same lookup and insert in process: nothing but the message
	// copies and the buffer pools between client and instance.
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
