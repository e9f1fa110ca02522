package zht_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"zht"
	"zht/internal/core"
	"zht/internal/figures"
	"zht/internal/wire"
)

// batchSpeedupMin is the floor BenchmarkBatchSpeedup gates on. Batching
// that sent one message per sub-op would score about 1.
const batchSpeedupMin = 3.0

// BenchmarkBatchSpeedup is the batching regression gate (`make
// bench-smoke`): the paper's §IV.A workload through
// figures.RunAllToAll on 4 loopback tcp-cache instances with 4
// clients of 2 000 rounds each, once lockstep and once with one
// Client.Batch of 64 per phase. It fails unless the batched run's
// throughput is at least batchSpeedupMin times the lockstep run's. It
// is a benchmark, not a test, so `go test ./...` never times a
// wall-clock ratio under CPU contention.
func BenchmarkBatchSpeedup(b *testing.B) {
	// rounds sizes the batched run to ~50 ms: shorter, and connection
	// warm-up and one GC cycle decide the ratio.
	const clients, rounds, batch = 4, 2000, 64
	d, cleanup, _, err := figures.NetDeployment(clients,
		zht.Config{NumPartitions: 256, RetryBase: time.Millisecond}, "tcp-cache")
	if err != nil {
		b.Fatal(err)
	}
	defer cleanup()
	cs := make([]*zht.Client, clients)
	for i := range cs {
		if cs[i], err = d.NewClient(); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < b.N; i++ {
		lockstep, err := figures.RunAllToAll(cs, rounds, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		batched, err := figures.RunAllToAll(cs, rounds, batch, nil)
		if err != nil {
			b.Fatal(err)
		}
		ratio := batched.Throughput() / lockstep.Throughput()
		b.ReportMetric(lockstep.Throughput(), "lockstep-ops/s")
		b.ReportMetric(batched.Throughput(), "batch-ops/s")
		b.ReportMetric(ratio, "speedup")
		if ratio < batchSpeedupMin {
			b.Fatalf("batch=%d speedup %.2fx is below %.1fx", batch, ratio, batchSpeedupMin)
		}
	}
}

// BenchmarkBatchMixedParallel is the tcp-batch64-mixed workload's
// envelope path alone: two unreplicated instances on loopback TCP,
// 20 000 preloaded 132-byte values, and from every core Client.Batch
// calls of 64 sub-ops drawing 50 % lookups, 40 % inserts and 10 %
// removes over uniform keys. Each batch is one envelope per instance,
// so the batch codec, the instances' envelope path and the store are
// the whole cost. One op is one batch; ns/subop and allocs/subop divide
// by its 64 sub-ops. `make profile-batch` runs it under -cpuprofile.
func BenchmarkBatchMixedParallel(b *testing.B) {
	const (
		keys      = 20_000
		batchSize = 64
	)
	c, cleanup := bootTCPCluster(b, zht.Config{
		NumPartitions: 1024,
		OpDeadline:    -1,
		AntiEntropy:   -1,
	}, 2)
	defer cleanup()
	names := make([]string, keys)
	val := make([]byte, 132)
	ops := make([]core.BatchOp, 0, 256)
	for k := range names {
		names[k] = fmt.Sprintf("batchk%09d", k)
		ops = append(ops, core.BatchOp{Op: wire.OpInsert, Key: names[k], Value: val})
		if len(ops) == cap(ops) || k == keys-1 {
			if _, err := c.Batch(ops); err != nil {
				b.Fatal(err)
			}
			ops = ops[:0]
		}
	}

	var worker atomic.Int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(worker.Add(1)))
		ops := make([]core.BatchOp, batchSize)
		for pb.Next() {
			for i := range ops {
				op := core.BatchOp{Key: names[rng.Intn(keys)]}
				switch n := rng.Intn(10); {
				case n < 5:
					op.Op = wire.OpLookup
				case n < 9:
					op.Op, op.Value = wire.OpInsert, val
				default:
					op.Op = wire.OpRemove
				}
				ops[i] = op
			}
			rs, err := c.Batch(ops)
			if err != nil {
				b.Error(err)
				return
			}
			for _, r := range rs {
				if r.Err != nil && !errors.Is(r.Err, zht.ErrNotFound) {
					b.Error(r.Err)
					return
				}
			}
		}
	})
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&after)
	subs := float64(b.N) * batchSize
	b.ReportMetric(float64(elapsed.Nanoseconds())/subs, "ns/subop")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/subs, "allocs/subop")
}
