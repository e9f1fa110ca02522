package zht_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"zht"
	"zht/internal/chaos"
	"zht/internal/core"
	"zht/internal/storage"
	"zht/internal/transport"
)

// The sweeps below price one setting per sub-benchmark, so ns/op down a
// table is the setting's cost. None is a gate; EXPERIMENTS.md records
// their numbers.

// runClients runs b.N calls of op, each on a key of its own, from at
// least n goroutines (b.SetParallelism rounds up to a multiple of
// GOMAXPROCS), each with its own client from newClient.
func runClients(b *testing.B, n int, newClient func() (*zht.Client, error), op func(c *zht.Client, key string) error) {
	procs := runtime.GOMAXPROCS(0)
	b.SetParallelism((n + procs - 1) / procs)
	var worker atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		c, err := newClient()
		if err != nil {
			b.Error(err)
			return
		}
		w := worker.Add(1)
		for i := 0; pb.Next(); i++ {
			if err := op(c, fmt.Sprintf("w%04dk%09d", w, i)); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// sweepValue is the paper's 132-byte value.
var sweepValue = make([]byte, 132)

func insertOp(c *zht.Client, key string) error { return c.Insert(key, sweepValue) }

// BenchmarkDurabilitySweep prices each WAL acknowledgement mode on the
// write path. One instance holds one partition on loopback TCP, so
// every write shares one log, and 64 inserters each dial their own
// connection, so group commit has that many records in flight to
// amortize one fsync over. Lookups never touch the WAL, so the load is
// inserts only; group against sync is the group-commit win.
func BenchmarkDurabilitySweep(b *testing.B) {
	for _, mode := range []storage.Durability{
		storage.DurabilityNone, storage.DurabilityAsync,
		storage.DurabilityGroup, storage.DurabilitySync,
	} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := zht.Config{
				NumPartitions: 1, RetryBase: time.Millisecond,
				DataDir: b.TempDir(), Durability: mode,
			}
			seed, cleanup := bootTCPCluster(b, cfg, 1)
			defer cleanup()
			runClients(b, 64, func() (*zht.Client, error) {
				caller := zht.NewTCPCaller()
				b.Cleanup(func() { caller.Close() })
				return zht.NewClient(cfg, seed.Table(), caller)
			}, insertOp)
		})
	}
}

// BenchmarkRepairSweep prices the anti-entropy loop: 16 inserters on 4
// in-process instances with 64 partitions, at 0, 1 and 2 replicas,
// each with the loop off and at a deliberately aggressive 10 ms
// period. In the steady state every digest probe finds equal trees, so
// off against on at one replica count is the loop's background work
// alone: digest probes (internal/sim's RepairRate term) and the TTL
// reaper's sweep, which runs on the same tick.
func BenchmarkRepairSweep(b *testing.B) {
	for _, replicas := range []int{0, 1, 2} {
		for _, period := range []time.Duration{0, 10 * time.Millisecond} {
			b.Run(fmt.Sprintf("replicas=%d/anti-entropy=%v", replicas, period), func(b *testing.B) {
				d, _, err := zht.BootstrapInproc(zht.Config{
					NumPartitions: 64, Replicas: replicas,
					AntiEntropy: period, RetryBase: time.Millisecond,
				}, 4)
				if err != nil {
					b.Fatal(err)
				}
				defer d.Close()
				runClients(b, 16, d.NewClient, insertOp)
			})
		}
	}
}

// BenchmarkConsistencySweep prices the consistency levels ONE, QUORUM
// and ALL at 1 and 2 replicas on 4 in-process instances with 64
// partitions. Every link, client to owner and each replica leg, runs
// behind a chaos 1 ms one-way delay: on bare loopback a replica leg
// costs less than scheduler jitter, while behind a uniform delay the
// serial round trips a level waits on decide its latency. 4 goroutines
// each write a key at the level and read it back at the level;
// write-ns/op and read-ns/op split each op's time between the two.
func BenchmarkConsistencySweep(b *testing.B) {
	delay := &chaos.Scenario{Steps: []chaos.Step{
		{Label: "uniform link delay", Rules: []chaos.Rule{{Latency: time.Millisecond}}},
	}}
	for _, replicas := range []int{1, 2} {
		for _, level := range []zht.Consistency{zht.ConsistencyOne, zht.ConsistencyQuorum, zht.ConsistencyAll} {
			b.Run(fmt.Sprintf("replicas=%d/%v", replicas, level), func(b *testing.B) {
				reg := transport.NewRegistry()
				d, err := zht.Bootstrap(zht.Config{
					NumPartitions: 64, Replicas: replicas, RetryBase: time.Millisecond,
				}, core.InprocEndpoints(4), func(addr string, h transport.Handler) (transport.Listener, error) {
					return reg.Listen(addr, h)
				}, chaos.Wrap(reg.NewClient(), delay, chaos.Options{Seed: 1}))
				if err != nil {
					b.Fatal(err)
				}
				defer d.Close()
				var writeNs, readNs atomic.Int64
				runClients(b, 4, d.NewClient, func(c *zht.Client, key string) error {
					t0 := time.Now()
					if err := c.InsertWith(key, sweepValue, level); err != nil {
						return err
					}
					t1 := time.Now()
					if _, err := c.LookupWith(key, level); err != nil {
						return err
					}
					writeNs.Add(int64(t1.Sub(t0)))
					readNs.Add(int64(time.Since(t1)))
					return nil
				})
				b.ReportMetric(float64(writeNs.Load())/float64(b.N), "write-ns/op")
				b.ReportMetric(float64(readNs.Load())/float64(b.N), "read-ns/op")
			})
		}
	}
}
