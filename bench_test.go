// Benchmark harness: one testing.B target per table and figure in the
// paper's evaluation (regenerating the series via internal/figures),
// plus ablation benches for the design choices DESIGN.md calls out.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Figure benches run the Quick workloads so a full pass stays fast;
// `go run ./cmd/zht-figures` (without -quick) produces the
// full-size series recorded in EXPERIMENTS.md.
package zht_test

import (
	"fmt"
	"testing"
	"time"

	"zht"
	"zht/internal/core"
	"zht/internal/figures"
	"zht/internal/sim"
	"zht/internal/transport"
	"zht/internal/wire"
)

// benchFigure wraps one figure generator as a benchmark and reports
// the series through b.Log so `-bench -v` shows the regenerated rows.
func benchFigure(b *testing.B, gen func(figures.Options) (*figures.Series, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s, err := gen(figures.Options{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + s.Render())
		}
	}
}

func BenchmarkFig01GPFSCreate(b *testing.B)        { benchFigure(b, figures.Fig01GPFS) }
func BenchmarkTab01Features(b *testing.B)          { benchFigure(b, figures.Tab01Features) }
func BenchmarkFig04Partitions(b *testing.B)        { benchFigure(b, figures.Fig04Partitions) }
func BenchmarkFig05Bootstrap(b *testing.B)         { benchFigure(b, figures.Fig05Bootstrap) }
func BenchmarkFig06NoVoHT(b *testing.B)            { benchFigure(b, figures.Fig06NoVoHT) }
func BenchmarkFig07Latency(b *testing.B)           { benchFigure(b, figures.Fig07Latency) }
func BenchmarkFig08ClusterLatency(b *testing.B)    { benchFigure(b, figures.Fig08ClusterLatency) }
func BenchmarkFig09Throughput(b *testing.B)        { benchFigure(b, figures.Fig09Throughput) }
func BenchmarkFig10ClusterThroughput(b *testing.B) { benchFigure(b, figures.Fig10ClusterThroughput) }
func BenchmarkFig11Efficiency(b *testing.B)        { benchFigure(b, figures.Fig11Efficiency) }
func BenchmarkFig12Replication(b *testing.B)       { benchFigure(b, figures.Fig12Replication) }
func BenchmarkFig13InstancesLatency(b *testing.B)  { benchFigure(b, figures.Fig13InstancesLatency) }
func BenchmarkFig14InstancesThroughput(b *testing.B) {
	benchFigure(b, figures.Fig14InstancesThroughput)
}
func BenchmarkFig15Migration(b *testing.B)        { benchFigure(b, figures.Fig15Migration) }
func BenchmarkFig16FusionFS(b *testing.B)         { benchFigure(b, figures.Fig16FusionFS) }
func BenchmarkFig17IStore(b *testing.B)           { benchFigure(b, figures.Fig17IStore) }
func BenchmarkFig18Matrix(b *testing.B)           { benchFigure(b, figures.Fig18Matrix) }
func BenchmarkFig19MatrixEfficiency(b *testing.B) { benchFigure(b, figures.Fig19MatrixEfficiency) }

// ---------------------------------------------------------------
// Ablation benches (DESIGN.md §3): direct measurements of the design
// choices, one op per iteration so ns/op is the op latency.
// ---------------------------------------------------------------

// AblationServerMode: event-driven vs spawn-per-request server
// architecture (§III.D — the paper measured the epoll redesign at 3x).
func BenchmarkAblationServerMode(b *testing.B) {
	for _, mode := range []struct {
		name string
		m    transport.ServerMode
	}{{"event-driven", transport.EventDriven}, {"spawn-per-request", transport.SpawnPerRequest}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			h := func(req *wire.Request) *wire.Response {
				// The request (and the frame its Value aliases) is
				// recycled when this handler returns; echo a copy.
				return &wire.Response{Status: wire.StatusOK, Value: append([]byte(nil), req.Value...)}
			}
			srv, err := transport.ListenTCP("127.0.0.1:0", h, mode.m)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			c := transport.NewTCPClient(transport.TCPClientOptions{ConnCache: true})
			defer c.Close()
			req := &wire.Request{Op: wire.OpInsert, Key: "key-0000000001", Value: make([]byte, 132)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Call(srv.Addr(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// AblationConnCache: TCP with vs without the LRU connection cache
// (§III.F — caching "makes TCP work almost as fast as UDP").
func BenchmarkAblationConnCache(b *testing.B) {
	h := func(req *wire.Request) *wire.Response {
		return &wire.Response{Status: wire.StatusOK}
	}
	srv, err := transport.ListenTCP("127.0.0.1:0", h, transport.EventDriven)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	for _, cached := range []bool{true, false} {
		name := "cached"
		if !cached {
			name = "dial-per-op"
		}
		b.Run(name, func(b *testing.B) {
			c := transport.NewTCPClient(transport.TCPClientOptions{ConnCache: cached})
			defer c.Close()
			req := &wire.Request{Op: wire.OpPing}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Call(srv.Addr(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// AblationReplication: replica count and sync-vs-async acknowledged
// write latency (§IV.F).
func BenchmarkAblationReplication(b *testing.B) {
	for _, cfg := range []struct {
		name     string
		replicas int
		level    wire.Consistency
	}{
		{"r0", 0, wire.ConsistencyDefault},
		{"r1-async", 1, wire.ConsistencyDefault},
		{"r2-async", 2, wire.ConsistencyDefault},
		{"r1-sync", 1, wire.ConsistencyAll},
		{"r2-sync", 2, wire.ConsistencyAll},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			c := zht.Config{NumPartitions: 256, Replicas: cfg.replicas,
				WriteLevel: cfg.level, RetryBase: time.Millisecond}
			d, _, err := zht.BootstrapInproc(c, 4)
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			cl, err := d.NewClient()
			if err != nil {
				b.Fatal(err)
			}
			val := make([]byte, 132)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cl.Insert(fmt.Sprintf("k%09d", i), val); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			d.Drain()
		})
	}
}

// AblationMigrationVsRehash: moving a whole partition image vs
// re-inserting (rehashing) every key/value pair one by one (§III.C:
// "Moving an entire partition is significantly more efficient than
// rehashing many key/value pairs").
func BenchmarkAblationMigrationVsRehash(b *testing.B) {
	const keysPerPartition = 2000
	setup := func(b *testing.B) (*core.Deployment, *core.Client) {
		cfg := core.Config{NumPartitions: 4, Replicas: 0, RetryBase: time.Millisecond}
		d, _, err := core.BootstrapInproc(cfg, 2)
		if err != nil {
			b.Fatal(err)
		}
		c, err := d.NewClient()
		if err != nil {
			b.Fatal(err)
		}
		val := make([]byte, 132)
		for i := 0; i < 4*keysPerPartition; i++ {
			if err := c.Insert(fmt.Sprintf("key-%09d", i), val); err != nil {
				b.Fatal(err)
			}
		}
		return d, c
	}
	b.Run("partition-move", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d, _ := setup(b)
			b.StartTimer()
			// A join migrates whole partitions.
			if _, err := d.Join(core.Endpoint{Addr: fmt.Sprintf("j-%d", i), Node: "jn"}); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			d.Close()
		}
	})
	b.Run("rehash-all-pairs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d, c := setup(b)
			b.StartTimer()
			// The rehash alternative: read and re-insert every pair
			// (what a DHT without fixed partitions pays on joins).
			for k := 0; k < 4*keysPerPartition; k++ {
				key := fmt.Sprintf("key-%09d", k)
				v, err := c.Lookup(key)
				if err != nil {
					b.Fatal(err)
				}
				if err := c.Insert(key, v); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			d.Close()
		}
	})
}

// AblationHashFunctions is covered in internal/hashing benches; this
// target measures the end-to-end effect of the hash choice on ops.
func BenchmarkAblationHashChoice(b *testing.B) {
	for _, h := range []string{"lookup3", "fnv1a", "jenkins", "fnv1a32x"} {
		h := h
		b.Run(h, func(b *testing.B) {
			cfg := zht.Config{NumPartitions: 256, HashName: h, RetryBase: time.Millisecond}
			d, _, err := zht.BootstrapInproc(cfg, 4)
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			c, err := d.NewClient()
			if err != nil {
				b.Fatal(err)
			}
			val := make([]byte, 132)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Insert(fmt.Sprintf("k%09d", i), val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// AppendVsInsert checks the §V.A micro-benchmark claim: "the append
// operation is at least as fast as inserts, if not faster, even under
// concurrent appends to the same key/value pair" — the property that
// lets FusionFS update shared directories without distributed locks.
func BenchmarkAppendVsInsertSameKey(b *testing.B) {
	cfg := zht.Config{NumPartitions: 256, Replicas: 0, RetryBase: time.Millisecond}
	d, _, err := zht.BootstrapInproc(cfg, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	b.Run("insert-distinct-keys", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			c, err := d.NewClient()
			if err != nil {
				b.Fatal(err)
			}
			i := 0
			for pb.Next() {
				if err := c.Insert(fmt.Sprintf("ins-%p-%d", c, i), []byte("entry")); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	})
	b.Run("append-same-key", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			c, err := d.NewClient()
			if err != nil {
				b.Fatal(err)
			}
			for pb.Next() {
				if err := c.Append("shared-directory", []byte("entry")); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// AblationBroadcast measures full dissemination time of the
// spanning-tree broadcast primitive (§VI, implemented) on a network
// with per-hop latency: the tree completes in O(log N) rounds, so
// doubling the cluster should far less than double the time.
func BenchmarkAblationBroadcast(b *testing.B) {
	for _, n := range []int{8, 32, 64} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := zht.Config{NumPartitions: 256, RetryBase: time.Millisecond}
			d, reg, err := zht.BootstrapInproc(cfg, n)
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			reg.SetLatency(func(string) time.Duration { return 200 * time.Microsecond })
			c, err := d.NewClient()
			if err != nil {
				b.Fatal(err)
			}
			instances := d.Instances()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := fmt.Sprintf("bcast-%06d", i)
				if err := c.Broadcast(key, []byte("v")); err != nil {
					b.Fatal(err)
				}
				// Wait for full dissemination (sleep while polling:
				// a hard spin would starve the forwarding goroutines
				// on small GOMAXPROCS).
				for {
					all := true
					for _, in := range instances {
						if _, ok := in.BroadcastValue(key); !ok {
							all = false
							break
						}
					}
					if all {
						break
					}
					time.Sleep(20 * time.Microsecond)
				}
			}
		})
	}
}

// SimulatorThroughput benches the two simulator engines themselves.
func BenchmarkSimulator(b *testing.B) {
	b.Run("analytic-1M", func(b *testing.B) {
		p := sim.DefaultParams(1<<20, 4)
		for i := 0; i < b.N; i++ {
			if _, err := sim.Analytic(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("des-1024", func(b *testing.B) {
		p := sim.DefaultParams(1024, 1)
		for i := 0; i < b.N; i++ {
			if _, err := sim.DiscreteEvent(p, 0.05, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// EndToEndOps is the headline micro-benchmark: acknowledged op
// latency through the full stack (client → wire → transport → server
// → NoVoHT) for each transport.
func BenchmarkEndToEndOps(b *testing.B) {
	cfg := zht.Config{NumPartitions: 1024, Replicas: 0, RetryBase: time.Millisecond}
	d, _, err := zht.BootstrapInproc(cfg, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	c, err := d.NewClient()
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 132)
	b.Run("insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := c.Insert(fmt.Sprintf("i%09d", i), val); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lookup", func(b *testing.B) {
		c.Insert("hot-key-000001", val)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Lookup("hot-key-000001"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := c.Append(fmt.Sprintf("a%06d", i%1000), []byte("x")); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("remove", func(b *testing.B) {
		b.StopTimer()
		for i := 0; i < b.N; i++ {
			c.Insert(fmt.Sprintf("r%09d", i), val)
		}
		b.StartTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Remove(fmt.Sprintf("r%09d", i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
