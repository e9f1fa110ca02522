package zht_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"zht"
	"zht/internal/core"
	"zht/internal/metrics"
	"zht/internal/storage"
	"zht/internal/transport"
	"zht/internal/wire"
)

// replicaEnvCounter counts the replica envelopes an instance sends:
// synchronous ones go out through CallBatch, asynchronous ones as one
// batched Call on the destination's FIFO, single legs as plain Calls.
type replicaEnvCounter struct {
	transport.Caller
	n atomic.Int64
}

func (c *replicaEnvCounter) Call(addr string, req *wire.Request) (*wire.Response, error) {
	if req.Op == wire.OpReplicate || req.Op == wire.OpBatch {
		c.n.Add(1)
	}
	return c.Caller.Call(addr, req)
}

func (c *replicaEnvCounter) CallBatch(addr string, reqs []*wire.Request) ([]*wire.Response, error) {
	if len(reqs) > 0 && reqs[0].Op == wire.OpReplicate {
		c.n.Add(1)
	}
	return c.Caller.CallBatch(addr, reqs)
}

// BenchmarkBatchReplicatedLoad is the bulk-load shape of the
// tcp-r1-durable-write workload's set-up, small enough to profile: a
// 2-instance, 1024-partition, Replicas=1 deployment on the in-process
// transport, each instance keeping all of its partitions on one async
// WAL, loaded through Client.Batch(256) inserts of fresh keys with
// 132-byte values. It reports ns per key, the replica envelopes each
// batch cost, and the WAL commits each batch cost across both logs (an
// instance commits once per envelope it applies); `make
// profile-bulkload` runs 800 batches (the workload's 200 000-key
// preload) under -cpuprofile.
func BenchmarkBatchReplicatedLoad(b *testing.B) {
	benchBatchReplicatedLoad(b, storage.DurabilityAsync)
}

// BenchmarkBatchReplicatedLoadGroup is BenchmarkBatchReplicatedLoad
// with both logs at group durability, where every commit waits out the
// group window and an fsync: the cost a bulk load pays per commit.
func BenchmarkBatchReplicatedLoadGroup(b *testing.B) {
	benchBatchReplicatedLoad(b, storage.DurabilityGroup)
}

func benchBatchReplicatedLoad(b *testing.B, durability storage.Durability) {
	const batch = 256
	met := metrics.NewRegistry()
	cfg := zht.Config{NumPartitions: 1024, Replicas: 1, DataDir: b.TempDir(), Durability: durability, Metrics: met}
	reg := transport.NewRegistry()
	legs := &replicaEnvCounter{Caller: reg.NewClient()}
	d, err := core.Bootstrap(cfg, core.InprocEndpoints(2), func(addr string, h transport.Handler) (transport.Listener, error) {
		return reg.Listen(addr, h)
	}, legs)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	c, err := core.NewClient(cfg, d.Instance(0).Table(), reg.NewClient())
	if err != nil {
		b.Fatal(err)
	}
	commits := met.Counter("zht.storage.wal.commits")

	val := make([]byte, 132)
	ops := make([]core.BatchOp, batch)
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ops {
			ops[j] = core.BatchOp{Op: wire.OpInsert, Key: fmt.Sprintf("bulkk%09d", next), Value: val}
			next++
		}
		rs, err := c.Batch(ops)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/key")
	b.ReportMetric(float64(legs.n.Load())/float64(b.N), "replica-envs/batch")
	b.ReportMetric(float64(commits.Value())/float64(b.N), "wal-commits/batch")
}
