// Command zht-bench runs the paper's micro-benchmark (§IV.A: 15-byte
// keys, 132-byte values, all-to-all insert/lookup/remove with 1:1
// clients and servers) through internal/figures' driver, against an
// in-process or a loopback-network deployment.
//
//	zht-bench -nodes 16 -ops 2000 -replicas 2
//	zht-bench -nodes 4 -transport tcp-cache   # real loopback TCP
//	zht-bench -transport tcp-cache -batch 64  # batched envelopes
//	zht-bench -nodes 4 -chaos 42              # degraded network
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"time"

	"zht/internal/chaos"
	"zht/internal/core"
	"zht/internal/figures"
	"zht/internal/metrics"
	"zht/internal/storage"
	"zht/internal/transport"
	"zht/internal/wire"
)

func main() {
	var (
		nodes      = flag.Int("nodes", 8, "instances (and concurrent clients)")
		ops        = flag.Int("ops", 2000, "insert+lookup+remove rounds per client")
		partitions = flag.Int("partitions", 1024, "partition count")
		replicas   = flag.Int("replicas", 0, "replicas per partition")
		trans      = flag.String("transport", "inproc", "inproc, tcp-cache, tcp-nocache, udp")
		dataDir    = flag.String("data", "", "persist partitions under this directory")
		durability = flag.String("durability", "async", "WAL acknowledgement mode: none, async, group, or sync (needs -data to matter)")
		batch      = flag.Int("batch", 1, "group each phase's ops into Batch calls of this size (1 = lockstep)")
		chaosSeed  = flag.Int64("chaos", 0, "fault-injection seed: run client traffic through a lossy, slow, ack-dropping network (0 = off)")
		metricsOn  = flag.Bool("metrics", false, "record into the metrics registry and print p50/p90/p99/p999 latency plus subsystem counters")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this address during the run (implies -metrics)")
	)
	flag.Parse()
	dur, err := storage.ParseDurability(*durability)
	if err != nil {
		log.Fatal(err)
	}
	var reg *metrics.Registry
	if *metricsOn || *debugAddr != "" {
		reg = metrics.NewRegistry()
		// The message/buffer pools are process-global, so their
		// instruments are registered here rather than per component.
		wire.EnablePoolMetrics(reg)
		transport.EnableBufMetrics(reg)
	}
	cfg := core.Config{
		NumPartitions: *partitions, Replicas: *replicas,
		DataDir: *dataDir, Durability: dur,
		RetryBase: time.Millisecond,
		Metrics:   reg,
	}
	if *debugAddr != "" {
		ln, stop, err := metrics.ServeDebug(*debugAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
		fmt.Printf("debug endpoint: http://%s/metrics\n", ln.Addr())
	}
	if *chaosSeed != 0 {
		// Degraded mode: bound each op so the run measures throughput
		// under faults instead of hanging on them.
		cfg.OpDeadline = 800 * time.Millisecond
	}
	var d *core.Deployment
	var caller transport.Caller
	switch *trans {
	case "inproc":
		dep, inproc, err := core.BootstrapInproc(cfg, *nodes)
		if err != nil {
			log.Fatal(err)
		}
		defer dep.Close()
		d, caller = dep, inproc.NewClient()
	default:
		dep, cleanup, c, err := figures.NetDeployment(*nodes, cfg, *trans)
		if err != nil {
			log.Fatal(err)
		}
		defer cleanup()
		d, caller = dep, c
	}

	// One client per instance; under -chaos each one's traffic runs
	// through its own seeded degraded network, and the run tolerates the
	// bounded unavailability that causes (and the NotFound shadows it
	// casts on later ops in a round).
	var tolerate func(error) bool
	if *chaosSeed != 0 {
		tolerate = func(err error) bool {
			return errors.Is(err, core.ErrUnavailable) || errors.Is(err, core.ErrNotFound)
		}
	}
	sc := degradedScenario()
	clients := make([]*core.Client, *nodes)
	for ci := range clients {
		cc := caller
		if *chaosSeed != 0 {
			cc = chaos.Wrap(caller, sc, chaos.Options{
				Seed: *chaosSeed + int64(ci), LossTimeout: 25 * time.Millisecond,
				Metrics: reg,
			})
		}
		if clients[ci], err = core.NewClient(cfg, d.Instance(0).Table(), cc); err != nil {
			log.Fatal(err)
		}
	}

	st, err := figures.RunAllToAll(clients, *ops, *batch, tolerate)
	if err != nil {
		log.Fatal(err)
	}
	el := st.Elapsed
	fmt.Printf("transport=%s nodes=%d replicas=%d: %d ops in %s\n",
		*trans, *nodes, *replicas, st.Ops, el.Round(time.Millisecond))
	fmt.Printf("latency  %.3f ms/op\n", float64(el.Nanoseconds())/1e6/float64(st.Ops)*float64(*nodes))
	fmt.Printf("throughput  %.0f ops/s\n", st.Throughput())
	if *chaosSeed != 0 {
		fmt.Printf("chaos seed=%d: %d/%d ops unavailable; degraded goodput %.0f ops/s\n",
			*chaosSeed, st.ErrCount, st.Ops, float64(st.Ops-st.ErrCount)/el.Seconds())
	}
	if reg != nil {
		printRegistryMetrics(reg)
	}
}

// degradedScenario is the -chaos schedule: a persistently bad network —
// loss on the request leg, lost acks, and jittery slow links — rather
// than a staged outage, so throughput numbers describe steady-state
// degraded operation.
func degradedScenario() *chaos.Scenario {
	return &chaos.Scenario{Steps: []chaos.Step{{
		At:    0,
		Label: "degraded network",
		Rules: []chaos.Rule{
			{Drop: 0.05, DropReply: 0.02},
			chaos.SlowLink("", "", 100*time.Microsecond, 500*time.Microsecond),
		},
	}}}
}
