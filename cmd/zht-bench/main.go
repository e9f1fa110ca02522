// Command zht-bench runs the paper's micro-benchmark (§IV.A: 15-byte
// keys, 132-byte values, all-to-all insert/lookup/remove with 1:1
// clients and servers) against an in-process deployment.
//
//	zht-bench -nodes 16 -ops 2000 -replicas 2
//	zht-bench -nodes 4 -transport tcp-cache   # real loopback TCP
//	zht-bench -transport tcp-cache -batch 64  # batched envelopes
//	zht-bench -smoke                          # lockstep vs batch ratio check
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zht/internal/chaos"
	"zht/internal/core"
	"zht/internal/hashing"
	"zht/internal/loadgen"
	"zht/internal/metrics"
	"zht/internal/ring"
	"zht/internal/storage"
	"zht/internal/tenant"
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
		mix        = flag.String("mix", "paper", "op mix: paper (insert/lookup/remove) or metadata (lookup-heavy with appends)")
		dist       = flag.String("dist", "uniform", "key distribution: uniform or zipf")
		keys       = flag.Int("keys", 100000, "keyspace size per client for -mix/-dist workloads")
		batch      = flag.Int("batch", 1, "group ops into Batch calls of this size (1 = lockstep)")
		smoke      = flag.Bool("smoke", false, "run the batching smoke check: lockstep vs -batch over loopback TCP, exit 1 if speedup < -smoke-min")
		smokeMin   = flag.Float64("smoke-min", 3.0, "minimum batch/lockstep throughput ratio for -smoke")
		chaosSeed  = flag.Int64("chaos", 0, "fault-injection seed: run client traffic through a lossy, slow, ack-dropping network (0 = off)")
		metricsOn  = flag.Bool("metrics", false, "record into the metrics registry and print p50/p90/p99/p999 latency plus subsystem counters")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this address during the run (implies -metrics)")
		durability = flag.String("durability", "async", "WAL acknowledgement mode: none, async, group, or sync (needs -data to matter)")
		durSweep   = flag.Bool("durability-sweep", false, "measure throughput per durability mode over loopback TCP and print the group-commit win")
		antiEnt    = flag.Duration("anti-entropy", 0, "anti-entropy period: replicas diff partition digests against their authority and pull divergent ranges this often (0 = off)")
		repSweep   = flag.Bool("repair-sweep", false, "measure the anti-entropy loop's throughput overhead at 0/1/2 replicas and print per-replica-count cost")
		consSweep  = flag.Bool("consistency-sweep", false, "measure write/read latency and throughput per consistency level (ONE/QUORUM/ALL) at 2 replicas, plus the measured stale-copy rate behind ONE writes")
		churn      = flag.Bool("churn", false, "alternate joining and departing one instance in the background for the whole run (inproc only; implies -metrics) and report membership churn plus migration counters")
		churnEvery = flag.Duration("churn-every", 250*time.Millisecond, "pause between membership changes in -churn mode")
		tenSweep   = flag.Bool("tenants", false, "run the noisy-neighbor sweep: two tenants at ~10:1 offered load, without and then with an admission quota on the noisy one, and print per-tenant throughput/latency plus shed counts")
	)
	flag.Parse()
	dur, err := storage.ParseDurability(*durability)
	if err != nil {
		log.Fatal(err)
	}
	if *durSweep {
		runDurabilitySweep(*ops)
		return
	}
	if *repSweep {
		runRepairSweep(*ops, *antiEnt)
		return
	}
	if *consSweep {
		runConsistencySweep(*ops)
		return
	}
	if *tenSweep {
		runTenantSweep(*ops)
		return
	}
	if *smoke {
		b := *batch
		if b <= 1 {
			b = 64
		}
		runSmoke(b, *smokeMin)
		return
	}
	if *churn {
		if *trans != "inproc" {
			log.Fatal("zht-bench: -churn requires -transport inproc")
		}
		*metricsOn = true // the membership/migration counters are the point
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
		AntiEntropy: *antiEnt,
		RetryBase:   time.Millisecond,
		Metrics:     reg,
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
	if *churn && cfg.OpDeadline == 0 {
		// Ops that land in a cutover window retry through redirects
		// and table refreshes; bound them so the run cannot hang on a
		// mid-migration stall.
		cfg.OpDeadline = 2 * time.Second
	}
	var d *core.Deployment
	var cleanup func()
	var rawCaller func() transport.Caller
	switch *trans {
	case "inproc":
		dep, reg, err := core.BootstrapInproc(cfg, *nodes)
		if err != nil {
			log.Fatal(err)
		}
		d, cleanup = dep, func() { dep.Close() }
		rawCaller = func() transport.Caller { return reg.NewClient() }
	default:
		dep, cl, caller, err := bootNet(*nodes, cfg, *trans, reg)
		if err != nil {
			log.Fatal(err)
		}
		d, cleanup = dep, cl
		rawCaller = func() transport.Caller { return caller }
	}
	defer cleanup()

	// newClient builds one bench client; under -chaos its traffic runs
	// through a scripted degraded network (loss, slow links, lost acks).
	newClient := func(ci int) (*core.Client, error) { return d.NewClient() }
	var unavail, attempted atomic.Int64
	tolerate := func(err error) bool { return false }
	if *chaosSeed != 0 {
		sc := degradedScenario()
		newClient = func(ci int) (*core.Client, error) {
			ch := chaos.Wrap(rawCaller(), sc, chaos.Options{
				Seed: *chaosSeed + int64(ci), LossTimeout: 25 * time.Millisecond,
				Metrics: reg,
			})
			return core.NewClient(cfg, d.Instance(0).Table(), ch)
		}
		// Degraded mode tolerates bounded unavailability (and the
		// NotFound shadows it casts on later ops in a round).
		tolerate = func(err error) bool {
			if errors.Is(err, core.ErrUnavailable) || errors.Is(err, core.ErrNotFound) {
				unavail.Add(1)
				return true
			}
			return false
		}
	}

	// -churn: one background goroutine alternates growing the ring by
	// one instance and shrinking it back, every -churn-every, for the
	// whole run. The workload tolerates the bounded unavailability a
	// cutover can surface, and the run reports how much data the
	// throttled migration engine moved underneath the bench.
	var joins, departs atomic.Int64
	churnStop := make(chan struct{})
	var churnWG sync.WaitGroup
	if *churn {
		tolerate = func(err error) bool {
			if errors.Is(err, core.ErrUnavailable) || errors.Is(err, core.ErrNotFound) {
				unavail.Add(1)
				return true
			}
			return false
		}
		base := d.Size()
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			for i := 0; ; i++ {
				select {
				case <-churnStop:
					return
				case <-time.After(*churnEvery):
				}
				if d.Size() <= base {
					ep := core.Endpoint{
						Addr: fmt.Sprintf("zht-churn-%04d", i),
						Node: fmt.Sprintf("node-churn-%04d", i),
					}
					if _, err := d.Join(ep); err == nil {
						joins.Add(1)
					}
				} else if err := d.Depart(d.Size() - 1); err == nil {
					departs.Add(1)
				}
			}
		}()
	}

	val := make([]byte, 132)
	var wg sync.WaitGroup
	errCh := make(chan error, *nodes)
	start := time.Now()
	for ci := 0; ci < *nodes; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := newClient(ci)
			if err != nil {
				errCh <- err
				return
			}
			if *mix != "paper" || *dist != "uniform" {
				if err := runGenerated(c, ci, *ops*3, *batch, *mix, *dist, *keys, tolerate); err != nil {
					errCh <- err
					return
				}
				attempted.Add(int64(*ops * 3))
				return
			}
			if err := runPaper(c, ci, *ops, *batch, &attempted, tolerate, val); err != nil {
				errCh <- err
			}
		}(ci)
	}
	wg.Wait()
	el := time.Since(start)
	if *churn {
		close(churnStop)
		churnWG.Wait()
	}
	close(errCh)
	for err := range errCh {
		log.Fatal(err)
	}
	total := int(attempted.Load())
	fmt.Printf("transport=%s nodes=%d replicas=%d: %d ops in %s\n",
		*trans, *nodes, *replicas, total, el.Round(time.Millisecond))
	fmt.Printf("latency  %.3f ms/op\n", float64(el.Nanoseconds())/1e6/float64(total)*float64(*nodes))
	fmt.Printf("throughput  %.0f ops/s\n", float64(total)/el.Seconds())
	if *chaosSeed != 0 {
		failed := int(unavail.Load())
		fmt.Printf("chaos seed=%d: %d/%d ops unavailable; degraded goodput %.0f ops/s\n",
			*chaosSeed, failed, total, float64(total-failed)/el.Seconds())
	}
	if *churn {
		fmt.Printf("churn: %d joins, %d departs (every %s); %d/%d ops unavailable during cutovers\n",
			joins.Load(), departs.Load(), *churnEvery, unavail.Load(), total)
	}
	if reg != nil {
		printRegistryMetrics(reg)
	}
}

// runPaper drives the paper's insert/lookup/remove sequence. With
// batch ≤ 1 each op is a lockstep round trip; otherwise ops are
// grouped into Batch calls of `batch` keys per phase, so each phase
// costs one envelope round trip per destination instead of one per
// key.
func runPaper(c *core.Client, ci, ops, batch int, attempted *atomic.Int64, tolerate func(error) bool, val []byte) error {
	if batch <= 1 {
		for i := 0; i < ops; i++ {
			k := fmt.Sprintf("c%04dk%09d", ci, i)[:15]
			attempted.Add(1)
			if err := c.Insert(k, val); err != nil && !tolerate(err) {
				return err
			} else if err != nil {
				continue
			}
			attempted.Add(1)
			if _, err := c.Lookup(k); err != nil && !tolerate(err) {
				return err
			} else if err != nil {
				continue
			}
			attempted.Add(1)
			if err := c.Remove(k); err != nil && !tolerate(err) {
				return err
			}
		}
		return nil
	}
	for i := 0; i < ops; i += batch {
		n := batch
		if ops-i < n {
			n = ops - i
		}
		keys := make([]string, n)
		for j := range keys {
			keys[j] = fmt.Sprintf("c%04dk%09d", ci, i+j)[:15]
		}
		build := func(op wire.Op, v []byte) []core.BatchOp {
			bs := make([]core.BatchOp, n)
			for j, k := range keys {
				bs[j] = core.BatchOp{Op: op, Key: k, Value: v}
			}
			return bs
		}
		for _, phase := range [][]core.BatchOp{
			build(wire.OpInsert, val),
			build(wire.OpLookup, nil),
			build(wire.OpRemove, nil),
		} {
			attempted.Add(int64(n))
			rs, err := c.Batch(phase)
			if err != nil {
				return err
			}
			for _, r := range rs {
				if r.Err != nil && !tolerate(r.Err) {
					return r.Err
				}
			}
		}
	}
	return nil
}

// runSmoke is the CI batching check: boot a loopback-TCP deployment,
// measure lockstep and batched throughput at equal client count, and
// fail unless batching wins by at least minRatio.
func runSmoke(batch int, minRatio float64) {
	cfg := core.Config{NumPartitions: 256, RetryBase: time.Millisecond}
	// rounds sizes the batched run to ~50 ms: shorter, and connection
	// warm-up and one GC cycle decide the ratio.
	const clients, rounds = 4, 2000
	d, cleanup, _, err := bootNet(clients, cfg, "tcp-cache", nil)
	if err != nil {
		log.Fatal(err)
	}
	defer cleanup()
	tolerate := func(error) bool { return false }
	val := make([]byte, 132)
	run := func(b, gen int) float64 {
		var attempted atomic.Int64
		var wg sync.WaitGroup
		errCh := make(chan error, clients)
		start := time.Now()
		for ci := 0; ci < clients; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				c, err := d.NewClient()
				if err != nil {
					errCh <- err
					return
				}
				// gen offsets client IDs so the two runs touch
				// disjoint keys.
				if err := runPaper(c, gen*clients+ci, rounds, b, &attempted, tolerate, val); err != nil {
					errCh <- err
				}
			}(ci)
		}
		wg.Wait()
		el := time.Since(start)
		close(errCh)
		for err := range errCh {
			log.Fatal(err)
		}
		return float64(attempted.Load()) / el.Seconds()
	}
	lockstep := run(1, 0)
	batched := run(batch, 1)
	ratio := batched / lockstep
	fmt.Printf("smoke: lockstep %.0f ops/s, batch=%d %.0f ops/s, speedup %.2fx (min %.1fx)\n",
		lockstep, batch, batched, ratio, minRatio)
	if ratio < minRatio {
		fmt.Println("smoke: FAIL — batching speedup below threshold")
		os.Exit(1)
	}
}

// runDurabilitySweep measures a mutation-only insert workload over
// loopback TCP once per durability mode — same client count, disjoint
// data directories — and prints per-mode throughput. The group/sync
// ratio is the group-commit win: both modes fsync before
// acknowledging, but group amortizes each fsync across the whole
// commit batch. The workload is all mutations because that is what a
// durability mode prices: lookups never touch the WAL, so mixing them
// in only dilutes the thing being measured.
func runDurabilitySweep(rounds int) {
	// Few partitions on few servers so concurrent mutations actually
	// share a WAL — group commit amortizes fsyncs only across records
	// that are in flight on the same log. One partition per server is
	// the per-store worst case for sync and the best case for group.
	const clients, servers, partitions = 64, 1, 1
	if rounds > 400 {
		rounds = 400 // per-op fsyncs make sync mode slow; keep the sweep short
	}
	modes := []storage.Durability{
		storage.DurabilityNone, storage.DurabilityAsync,
		storage.DurabilityGroup, storage.DurabilitySync,
	}
	val := make([]byte, 132)

	tput := make(map[storage.Durability]float64)
	for _, mode := range modes {
		dir, err := os.MkdirTemp("", "zht-dur")
		if err != nil {
			log.Fatal(err)
		}
		cfg := core.Config{
			NumPartitions: partitions, RetryBase: time.Millisecond,
			DataDir: dir, Durability: mode,
		}
		d, cleanup, _, err := bootNet(servers, cfg, "tcp-cache", nil)
		if err != nil {
			log.Fatal(err)
		}
		var attempted atomic.Int64
		var wg sync.WaitGroup
		errCh := make(chan error, clients)
		start := time.Now()
		for ci := 0; ci < clients; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				own := transport.NewTCPClient(transport.TCPClientOptions{ConnCache: true})
				defer own.Close()
				c, err := core.NewClient(cfg, d.Instance(0).Table(), own)
				if err != nil {
					errCh <- err
					return
				}
				for i := 0; i < rounds; i++ {
					k := fmt.Sprintf("c%04dk%09d", ci, i)[:15]
					attempted.Add(1)
					if err := c.Insert(k, val); err != nil {
						errCh <- err
						return
					}
				}
			}(ci)
		}
		wg.Wait()
		el := time.Since(start)
		close(errCh)
		for err := range errCh {
			log.Fatal(err)
		}
		cleanup()
		os.RemoveAll(dir)
		tput[mode] = float64(attempted.Load()) / el.Seconds()
		fmt.Printf("durability=%-5s  %8.0f ops/s  (%d clients, %d rounds, loopback TCP)\n",
			mode, tput[mode], clients, rounds)
	}
	fmt.Printf("group-commit win: group/sync = %.2fx; async/none = %.2fx\n",
		tput[storage.DurabilityGroup]/tput[storage.DurabilitySync],
		tput[storage.DurabilityAsync]/tput[storage.DurabilityNone])
}

// runRepairSweep prices the anti-entropy loop: the same insert
// workload runs at 0, 1, and 2 replicas per partition, each twice —
// with the loop off (seed behavior) and with a fast period — and the
// throughput ratio is the repair overhead. In the steady state every
// digest probe finds equal trees, so the cost measured here is the
// background digest traffic itself, the analytic model's RepairRate
// term (internal/sim). Replica counts beyond 0 also pay for
// replication itself; comparing off vs on within one replica count
// isolates the repair share.
func runRepairSweep(rounds int, period time.Duration) {
	const clients, servers, partitions = 16, 4, 64
	if period <= 0 {
		period = 10 * time.Millisecond // aggressive on purpose: make the overhead visible
	}
	if rounds > 5000 {
		rounds = 5000
	}
	val := make([]byte, 132)
	for _, reps := range []int{0, 1, 2} {
		var tput [2]float64
		for mode, ae := range []time.Duration{0, period} {
			cfg := core.Config{
				NumPartitions: partitions, Replicas: reps,
				AntiEntropy: ae, RetryBase: time.Millisecond,
			}
			d, _, err := core.BootstrapInproc(cfg, servers)
			if err != nil {
				log.Fatal(err)
			}
			var attempted atomic.Int64
			var wg sync.WaitGroup
			errCh := make(chan error, clients)
			start := time.Now()
			for ci := 0; ci < clients; ci++ {
				wg.Add(1)
				go func(ci int) {
					defer wg.Done()
					c, err := d.NewClient()
					if err != nil {
						errCh <- err
						return
					}
					for i := 0; i < rounds; i++ {
						k := fmt.Sprintf("r%dc%03dk%09d", reps, ci, i)
						attempted.Add(1)
						if err := c.Insert(k, val); err != nil {
							errCh <- err
							return
						}
					}
				}(ci)
			}
			wg.Wait()
			el := time.Since(start)
			close(errCh)
			for err := range errCh {
				log.Fatal(err)
			}
			d.Close()
			tput[mode] = float64(attempted.Load()) / el.Seconds()
		}
		overhead := (1 - tput[1]/tput[0]) * 100
		fmt.Printf("replicas=%d  off %9.0f ops/s  anti-entropy(%v) %9.0f ops/s  overhead %+5.1f%%\n",
			reps, tput[0], period, tput[1], overhead)
	}
}

// runConsistencySweep prices the consistency ladder: the same
// write+read workload runs once per level (ONE, QUORUM, ALL) against
// one topology — 4 servers, 2 replicas per partition, so every write
// has three copies and the levels genuinely differ (ONE waits on the
// primary plus its always-sync first replica leg, QUORUM on 2 of 3
// acks, ALL on all 3; the replica legs are serial RPCs, so each extra
// sync leg is a full round trip). Every link — client→owner and the
// owner's replica legs alike — carries an emulated fixed one-way
// delay through the chaos caller: on bare loopback a warm replica leg
// costs less than scheduler jitter, so leg counts (the thing a
// consistency level actually buys) would drown in noise, where
// against a uniform link delay they are exactly what the sweep
// resolves. Latency is measured per op and aggregated across clients;
// the headline number is the ONE/ALL median-write-latency ratio, the
// price of the extra synchronous leg ALL waits on. Medians, not
// means: retried ops put multi-millisecond outliers in the tail.
//
// The sweep also measures what ONE's speed costs: a single-threaded
// prober writes at ONE and immediately reads every replica copy
// directly (the instance's in-process Handle — the probe must not
// ride the delayed network it is trying to outrun), counting copies
// that do not yet hold the acked value. That fraction is the measured
// stale-read window a failover read could hit before hinted handoff
// or anti-entropy closes it. The first replica leg is synchronous at
// every level, so copy 1 is never stale by construction; the measured
// rate is the async tail's window.
func runConsistencySweep(rounds int) {
	// Few clients, not a saturating swarm: the sweep prices the
	// per-op leg count, and queueing delay under saturation drowns
	// the very difference being measured. linkLat is a millisecond —
	// large enough that the emulated delay, not the sleep timer's
	// overshoot, is what each leg costs.
	const clients, servers, partitions = 4, 4, 64
	const linkLat = time.Millisecond
	if rounds > 3000 {
		rounds = 3000
	}
	val := make([]byte, 132)
	levels := []wire.Consistency{
		wire.ConsistencyOne, wire.ConsistencyQuorum, wire.ConsistencyAll,
	}
	sc := &chaos.Scenario{Steps: []chaos.Step{
		{At: 0, Label: "uniform link delay", Rules: []chaos.Rule{{Latency: linkLat}}},
	}}
	boot := func(replicas int) (*core.Deployment, *transport.Registry) {
		cfg := core.Config{
			NumPartitions: partitions, Replicas: replicas,
			RetryBase: time.Millisecond,
		}
		reg := transport.NewRegistry()
		d, err := core.Bootstrap(cfg, core.InprocEndpoints(servers),
			func(addr string, h transport.Handler) (transport.Listener, error) {
				return reg.Listen(addr, h)
			}, chaos.Wrap(reg.NewClient(), sc, chaos.Options{Seed: 1}))
		if err != nil {
			log.Fatal(err)
		}
		return d, reg
	}
	newClient := func(d *core.Deployment, reg *transport.Registry, replicas int, seed int64) (*core.Client, error) {
		return core.NewClient(core.Config{
			NumPartitions: partitions, Replicas: replicas,
			RetryBase: time.Millisecond,
		}, d.Instance(0).Table(), chaos.Wrap(reg.NewClient(), sc, chaos.Options{Seed: seed}))
	}
	type stats struct {
		tput float64
		p50  time.Duration
		p99  time.Duration
	}
	aggregate := func(all [][]time.Duration, elapsed time.Duration) stats {
		var merged []time.Duration
		for _, ls := range all {
			merged = append(merged, ls...)
		}
		sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
		return stats{
			tput: float64(len(merged)) / elapsed.Seconds(),
			p50:  merged[len(merged)/2],
			p99:  merged[len(merged)*99/100],
		}
	}
	fmt.Printf("consistency sweep: %d servers, %d clients x %d rounds, %v emulated one-way link delay\n",
		servers, clients, rounds, linkLat)
	for _, replicas := range []int{1, 2} {
		write := make(map[wire.Consistency]stats)
		for _, level := range levels {
			d, reg := boot(replicas)
			var wg sync.WaitGroup
			errCh := make(chan error, clients)
			wlats := make([][]time.Duration, clients)
			rlats := make([][]time.Duration, clients)
			var welapsed, relapsed time.Duration
			for phase := 0; phase < 2; phase++ {
				start := time.Now()
				for ci := 0; ci < clients; ci++ {
					wg.Add(1)
					go func(ci, phase int) {
						defer wg.Done()
						c, err := newClient(d, reg, replicas, int64(100+ci))
						if err != nil {
							errCh <- err
							return
						}
						lats := make([]time.Duration, 0, rounds)
						for i := 0; i < rounds; i++ {
							k := fmt.Sprintf("l%dc%03dk%09d", level, ci, i)
							t0 := time.Now()
							if phase == 0 {
								err = c.InsertWith(k, val, level)
							} else {
								_, err = c.LookupWith(k, level)
							}
							lats = append(lats, time.Since(t0))
							if err != nil {
								errCh <- err
								return
							}
						}
						if phase == 0 {
							wlats[ci] = lats
						} else {
							rlats[ci] = lats
						}
					}(ci, phase)
				}
				wg.Wait()
				if phase == 0 {
					welapsed = time.Since(start)
				} else {
					relapsed = time.Since(start)
				}
			}
			close(errCh)
			for err := range errCh {
				log.Fatal(err)
			}
			d.Close()
			w, r := aggregate(wlats, welapsed), aggregate(rlats, relapsed)
			write[level] = w
			fmt.Printf("replicas=%d level=%-6s  write %8.0f ops/s  p50 %8v  p99 %8v | read %8.0f ops/s  p50 %8v  p99 %8v\n",
				replicas, level, w.tput, w.p50.Round(100*time.Nanosecond), w.p99.Round(100*time.Nanosecond),
				r.tput, r.p50.Round(100*time.Nanosecond), r.p99.Round(100*time.Nanosecond))
		}
		fmt.Printf("replicas=%d one/all median write latency ratio: %.2fx\n",
			replicas, float64(write[wire.ConsistencyOne].p50)/float64(write[wire.ConsistencyAll].p50))
	}

	// The staleness probe. The prober is a co-located client (the
	// paper's deployment shape: every node runs both) on an UNdelayed
	// link, so its ack arrives before the delayed replica legs land —
	// the measurement isolates the replication tail, not the probe's
	// own network. Copy 1 is the always-sync first leg; copies past it
	// are the async tail, and for each stale one the probe polls until
	// the value lands, yielding the staleness window's width. Probed
	// at replicas=2: the only topology above with an async tail.
	const probeReplicas = 2
	d, reg := boot(probeReplicas)
	defer d.Close()
	cfg := core.Config{
		NumPartitions: partitions, Replicas: probeReplicas,
		RetryBase: time.Millisecond,
	}
	c, err := core.NewClient(cfg, d.Instance(0).Table(), reg.NewClient())
	if err != nil {
		log.Fatal(err)
	}
	table := d.Instance(0).Table()
	hashf := hashing.ByName("")
	byID := map[ring.InstanceID]*core.Instance{}
	for _, in := range d.Instances() {
		byID[in.ID()] = in
	}
	fresh := func(in *core.Instance, p int, k string, v []byte) bool {
		resp := in.Handle(&wire.Request{
			Op: wire.OpLookup, Partition: int64(p), Key: k,
			Flags: wire.FlagReplicaRead,
		})
		return resp.Status == wire.StatusOK && string(resp.Value) == string(v)
	}
	var syncProbes, syncStale, tailProbes, tailStale int
	var lags []time.Duration
	for i := 0; i < rounds; i++ {
		k := fmt.Sprintf("stale-probe-%09d", i)
		v := []byte(fmt.Sprintf("v%09d", i))
		if err := c.InsertWith(k, v, wire.ConsistencyOne); err != nil {
			log.Fatal(err)
		}
		acked := time.Now()
		p := table.Partition(hashf(k))
		for ri, rep := range table.ReplicasOf(p, probeReplicas) {
			in := byID[rep.ID]
			ok := fresh(in, p, k, v)
			if ri == 0 {
				syncProbes++
				if !ok {
					syncStale++
				}
				continue
			}
			tailProbes++
			if ok {
				lags = append(lags, 0)
				continue
			}
			tailStale++
			for !fresh(in, p, k, v) {
				time.Sleep(10 * time.Microsecond)
			}
			lags = append(lags, time.Since(acked))
		}
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	fmt.Printf("ONE staleness probe (co-located client): sync copy stale %d/%d (%.2f%%); async copy stale %d/%d (%.2f%%), window p50 %v p99 %v\n",
		syncStale, syncProbes, 100*float64(syncStale)/float64(syncProbes),
		tailStale, tailProbes, 100*float64(tailStale)/float64(tailProbes),
		lags[len(lags)/2].Round(time.Microsecond), lags[len(lags)*99/100].Round(time.Microsecond))
}

// degradedScenario is the default -chaos schedule: a persistently bad
// network — loss on the request leg, lost acks, and jittery slow
// links — rather than a staged outage, so throughput numbers describe
// steady-state degraded operation.
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

// runGenerated drives a loadgen workload: op mixes and key
// distributions beyond the paper's fixed sequence. With batch > 1 the
// generated stream is chunked into mixed-op Batch calls.
func runGenerated(c *core.Client, clientID, nOps, batch int, mixName, distName string, keys int, tolerate func(error) bool) error {
	var m loadgen.Mix
	switch mixName {
	case "paper":
		m = loadgen.PaperMicrobench()
	case "metadata":
		m = loadgen.MetadataHeavy()
	default:
		return fmt.Errorf("unknown mix %q", mixName)
	}
	var kd loadgen.KeyDist
	switch distName {
	case "uniform":
		kd = loadgen.Uniform{Keys: keys}
	case "zipf":
		kd = loadgen.Zipf{Keys: keys, S: 1.3}
	default:
		return fmt.Errorf("unknown distribution %q", distName)
	}
	g, err := loadgen.New(loadgen.Options{
		Mix: m, Dist: kd, Seed: int64(clientID) + 1,
		KeyPrefix: fmt.Sprintf("c%04d/", clientID),
	})
	if err != nil {
		return err
	}
	if batch > 1 {
		return runGeneratedBatched(c, g, nOps, batch, tolerate)
	}
	for i := 0; i < nOps; i++ {
		op := g.Next()
		switch op.Kind {
		case loadgen.OpInsert:
			err = c.Insert(op.Key, op.Value)
		case loadgen.OpLookup:
			if _, lerr := c.Lookup(op.Key); lerr != nil && !errors.Is(lerr, core.ErrNotFound) {
				err = lerr
			}
		case loadgen.OpRemove:
			if rerr := c.Remove(op.Key); rerr != nil && !errors.Is(rerr, core.ErrNotFound) {
				err = rerr
			}
		case loadgen.OpAppend:
			err = c.Append(op.Key, op.Value)
		}
		if err != nil {
			if tolerate(err) {
				err = nil
				continue
			}
			return fmt.Errorf("%s %s: %w", op.Kind, op.Key, err)
		}
	}
	return nil
}

// runGeneratedBatched chunks the generated op stream into mixed
// Batch calls — the realistic shape for -batch with non-paper mixes,
// where inserts, lookups, and appends share an envelope.
func runGeneratedBatched(c *core.Client, g *loadgen.Generator, nOps, batch int, tolerate func(error) bool) error {
	buf := make([]core.BatchOp, 0, batch)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		rs, err := c.Batch(buf)
		if err != nil {
			return err
		}
		for i, r := range rs {
			if r.Err == nil {
				continue
			}
			readMiss := (buf[i].Op == wire.OpLookup || buf[i].Op == wire.OpRemove) &&
				errors.Is(r.Err, core.ErrNotFound)
			if readMiss || tolerate(r.Err) {
				continue
			}
			return fmt.Errorf("%s %s: %w", buf[i].Op, buf[i].Key, r.Err)
		}
		buf = buf[:0]
		return nil
	}
	for i := 0; i < nOps; i++ {
		op := g.Next()
		b := core.BatchOp{Key: op.Key}
		switch op.Kind {
		case loadgen.OpInsert:
			b.Op, b.Value = wire.OpInsert, op.Value
		case loadgen.OpLookup:
			b.Op = wire.OpLookup
		case loadgen.OpRemove:
			b.Op = wire.OpRemove
		case loadgen.OpAppend:
			b.Op, b.Value = wire.OpAppend, op.Value
		}
		buf = append(buf, b)
		if len(buf) == batch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// bootNet mirrors the figures harness: n instances over real loopback
// sockets. reg (may be nil) wires the transport-level instruments.
func bootNet(n int, cfg core.Config, kind string, reg *metrics.Registry) (*core.Deployment, func(), transport.Caller, error) {
	var caller transport.Caller
	switch kind {
	case "tcp-cache":
		caller = transport.NewTCPClient(transport.TCPClientOptions{ConnCache: true, Metrics: reg})
	case "tcp-nocache":
		caller = transport.NewTCPClient(transport.TCPClientOptions{ConnCache: false, Metrics: reg})
	case "udp":
		caller = transport.NewUDPClient(transport.UDPClientOptions{Timeout: 2 * time.Second, Metrics: reg})
	default:
		return nil, nil, nil, fmt.Errorf("unknown transport %q", kind)
	}
	var lns []transport.Listener
	var switches []*core.HandlerSwitch
	eps := make([]core.Endpoint, n)
	for i := range eps {
		hs := &core.HandlerSwitch{}
		var ln transport.Listener
		var err error
		if kind == "udp" {
			ln, err = transport.ListenUDP("127.0.0.1:0", hs.Handle, transport.WithServerMetrics(reg))
		} else {
			ln, err = transport.ListenTCP("127.0.0.1:0", hs.Handle, transport.EventDriven, transport.WithServerMetrics(reg))
		}
		if err != nil {
			return nil, nil, nil, err
		}
		lns = append(lns, ln)
		switches = append(switches, hs)
		eps[i] = core.Endpoint{Addr: ln.Addr(), Node: fmt.Sprintf("n%03d", i)}
	}
	d, err := core.Bootstrap(cfg, eps, func(addr string, h transport.Handler) (transport.Listener, error) {
		for i, ep := range eps {
			if ep.Addr == addr {
				switches[i].Set(h)
				return nopListener{addr}, nil
			}
		}
		return nil, fmt.Errorf("unbound %s", addr)
	}, caller)
	if err != nil {
		return nil, nil, nil, err
	}
	return d, func() {
		d.Close()
		for _, ln := range lns {
			ln.Close()
		}
		caller.Close()
	}, caller, nil
}

type nopListener struct{ addr string }

func (l nopListener) Addr() string { return l.addr }
func (l nopListener) Close() error { return nil }

// runTenantSweep prices admission control the way an operator would
// see it: two tenants share one deployment, the noisy one offering
// roughly an order of magnitude more load than the calm one, and the
// same workload runs twice — once with no quotas (the noisy tenant
// queues everyone) and once with a token-bucket quota on the noisy
// tenant (over-quota requests are shed at the gate with StatusBusy
// before they touch a partition). The headline numbers are the calm
// tenant's p50/p99 against its isolated baseline: with the quota on,
// the calm tenant should sit near its baseline while the noisy
// tenant's surplus shows up as sheds, not as everyone's queueing
// delay.
func runTenantSweep(rounds int) {
	const servers, partitions, floodWorkers = 4, 64, 8
	if rounds > 2000 {
		rounds = 2000
	}
	type stats struct {
		tput float64
		p50  time.Duration
		p99  time.Duration
	}
	summarize := func(lats []time.Duration, elapsed time.Duration) stats {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return stats{
			tput: float64(len(lats)) / elapsed.Seconds(),
			p50:  lats[len(lats)/2],
			p99:  lats[len(lats)*99/100],
		}
	}
	baseCfg := func() core.Config {
		return core.Config{
			NumPartitions: partitions, Replicas: 1,
			RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond,
			OpRetries: 1, OpDeadline: 2 * time.Second,
		}
	}
	// run executes one configuration: flood on/off, quota on/off.
	// It returns the calm tenant's latency stats plus the noisy
	// tenant's completed-op count and shed count.
	run := func(flood, quota bool) (stats, int64, int64) {
		cfg := baseCfg()
		var adm *tenant.Admission
		if quota {
			treg := tenant.NewRegistry()
			// The noisy bucket refills well below the flood's offered
			// load; the calm bucket is effectively unlimited.
			if err := treg.Register(tenant.Tenant{Name: "noisy", Rate: 2000, Burst: 200}); err != nil {
				log.Fatal(err)
			}
			if err := treg.Register(tenant.Tenant{Name: "calm", Rate: 1e7, Burst: 1e6}); err != nil {
				log.Fatal(err)
			}
			adm = tenant.NewAdmission(treg, tenant.AdmissionOptions{})
			cfg.Admission = adm
		}
		d, _, err := core.BootstrapInproc(cfg, servers)
		if err != nil {
			log.Fatal(err)
		}
		defer d.Close()

		var flooding atomic.Bool
		var noisyOK atomic.Int64
		var wg, started sync.WaitGroup
		if flood {
			flooding.Store(true)
			for g := 0; g < floodWorkers; g++ {
				wg.Add(1)
				started.Add(1)
				go func(g int) {
					defer wg.Done()
					nc, err := d.NewClient()
					if err != nil {
						started.Done()
						return
					}
					noisy := tenant.NewClient(nc, tenant.Tenant{Name: "noisy"})
					for i := 0; flooding.Load(); i++ {
						// Errors (ErrUnavailable after busy retries
						// exhaust) are the quota doing its job.
						if noisy.Insert(fmt.Sprintf("flood-%d-%d", g, i), []byte("x")) == nil {
							noisyOK.Add(1)
						}
						if i == 0 {
							started.Done()
						}
					}
				}(g)
			}
			started.Wait()
		}

		cc, err := d.NewClient()
		if err != nil {
			log.Fatal(err)
		}
		calm := tenant.NewClient(cc, tenant.Tenant{Name: "calm"})
		lats := make([]time.Duration, 0, rounds)
		start := time.Now()
		for i := 0; i < rounds; i++ {
			k := fmt.Sprintf("calm-%09d", i)
			t0 := time.Now()
			if err := calm.Insert(k, []byte("v")); err != nil {
				log.Fatalf("calm insert: %v", err)
			}
			if _, err := calm.Lookup(k); err != nil {
				log.Fatalf("calm lookup: %v", err)
			}
			lats = append(lats, time.Since(t0))
		}
		elapsed := time.Since(start)
		flooding.Store(false)
		wg.Wait()
		var shed int64
		if adm != nil {
			shed = adm.ShedCount("noisy")
		}
		return summarize(lats, elapsed), noisyOK.Load(), shed
	}

	fmt.Printf("tenant sweep: %d servers, %d flood workers vs 1 calm client x %d rounds (insert+lookup pairs)\n",
		servers, floodWorkers, rounds)
	base, _, _ := run(false, false)
	fmt.Printf("isolated     calm %8.0f pairs/s  p50 %8v  p99 %8v\n",
		base.tput, base.p50.Round(100*time.Nanosecond), base.p99.Round(100*time.Nanosecond))
	off, noisyOff, _ := run(true, false)
	fmt.Printf("quota=off    calm %8.0f pairs/s  p50 %8v  p99 %8v | noisy ok %8d  shed      n/a\n",
		off.tput, off.p50.Round(100*time.Nanosecond), off.p99.Round(100*time.Nanosecond), noisyOff)
	on, noisyOn, shed := run(true, true)
	fmt.Printf("quota=on     calm %8.0f pairs/s  p50 %8v  p99 %8v | noisy ok %8d  shed %8d\n",
		on.tput, on.p50.Round(100*time.Nanosecond), on.p99.Round(100*time.Nanosecond), noisyOn, shed)
	fmt.Printf("calm p50 vs isolated: quota=off %.2fx, quota=on %.2fx\n",
		float64(off.p50)/float64(base.p50), float64(on.p50)/float64(base.p50))
	if float64(on.p50) > 1.5*float64(base.p50) {
		fmt.Println("WARN: quota-protected calm p50 exceeds 1.5x its isolated baseline")
	}
}
