// Command churnsmoke is the `make churn-smoke` gate: a short
// randomized elastic-membership check for the gossip + online
// rebalancing path (internal/gossip, core.Join/Depart). Each
// iteration bootstraps an in-process deployment, keeps a mutating
// workload running while the cluster scales up by two instances and
// back down by two, and then requires the membership contract:
//
//   - zero acknowledged writes are lost: every key's final acked
//     state reads back through a fresh client after the churn,
//   - every surviving instance converges to the same ring epoch
//     within the deadline: a change is announced only to the instances
//     whose copies it moves, so the rest must catch up through epoch
//     piggybacking on request traffic, and at least one gossip pull
//     must have advanced a table, and
//   - data actually moved through the throttled migration engine:
//     the zht.migrate.* counters show completed cutovers and bytes.
//
// Seeds are randomized per run but printed, so any failure is
// replayable with -seed. Run from the repository root:
// go run ./internal/tools/churnsmoke
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"time"

	"zht/internal/core"
	"zht/internal/metrics"
	"zht/internal/ring"
)

func main() {
	iters := flag.Int("iters", 2, "scale-up/scale-down iterations, each on a fresh deployment")
	ops := flag.Int("ops", 1500, "approximate mutations per iteration")
	seed := flag.Int64("seed", 0, "base seed (0 = derive from time, printed for replay)")
	flag.Parse()

	base := *seed
	if base == 0 {
		base = time.Now().UnixNano()
	}
	fmt.Printf("churnsmoke: %d iters, ~%d ops each, base seed %d\n", *iters, *ops, base)

	for i := 0; i < *iters; i++ {
		if err := runOnce(base+int64(i), *ops); err != nil {
			fmt.Fprintf(os.Stderr, "FAIL iter %d (seed %d): %v\n", i, base+int64(i), err)
			os.Exit(1)
		}
		fmt.Printf("iter %d ok\n", i)
	}
	fmt.Println("churnsmoke PASS")
}

func runOnce(seed int64, ops int) error {
	mreg := metrics.NewRegistry()
	cfg := core.Config{
		NumPartitions:  64,
		Replicas:       1,
		AntiEntropy:    25 * time.Millisecond,
		OpRetries:      3,
		RetryBase:      time.Millisecond,
		RetryMax:       10 * time.Millisecond,
		OpDeadline:     3 * time.Second,
		MigrateRate:    1 << 20,
		GossipCooldown: 2 * time.Millisecond,
		Metrics:        mreg,
	}
	const n = 4
	d, _, err := core.BootstrapInproc(cfg, n)
	if err != nil {
		return err
	}
	defer d.Close()
	client, err := d.NewClient()
	if err != nil {
		return err
	}

	// Mutating workload that runs across every membership change. Keys
	// enter expected only when the write is acked; a key whose op
	// errors is tainted (its state is ambiguous) until a later op on it
	// acks again.
	rng := rand.New(rand.NewSource(seed))
	expected := make(map[string][]byte)
	removed := make(map[string]bool)
	tainted := make(map[string]bool)
	var acked, errs int
	var mu sync.Mutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("churn-%d-%04d", seed, rng.Intn(400))
			switch r := rng.Float64(); {
			case r < 0.10:
				err := client.Remove(key)
				mu.Lock()
				if err == nil || errors.Is(err, core.ErrNotFound) {
					delete(expected, key)
					removed[key] = true
					delete(tainted, key)
					acked++
				} else {
					tainted[key] = true
					errs++
				}
				mu.Unlock()
			default:
				val := []byte(fmt.Sprintf("v%d-%d", seed, i))
				err := client.Insert(key, val)
				mu.Lock()
				if err == nil {
					expected[key] = val
					delete(removed, key)
					delete(tainted, key)
					acked++
				} else {
					tainted[key] = true
					errs++
				}
				mu.Unlock()
			}
			if i%64 == 0 {
				time.Sleep(time.Millisecond)
			}
			mu.Lock()
			done := acked >= ops
			mu.Unlock()
			if done {
				time.Sleep(time.Millisecond) // keep traffic flowing for gossip
			}
		}
	}()

	// Scale up by two, then back down to the original size, all under
	// load. Joins race live traffic and may lose an epoch contest even
	// after Join's internal retries, so each step gets a few attempts.
	churnErr := func() error {
		time.Sleep(50 * time.Millisecond)
		for j := 0; j < 2; j++ {
			ep := core.Endpoint{Addr: fmt.Sprintf("zht-grow-%d-%04d", seed%997, j), Node: fmt.Sprintf("node-grow-%04d", j)}
			var err error
			for attempt := 0; attempt < 10; attempt++ {
				if _, err = d.Join(ep); err == nil {
					break
				}
				time.Sleep(25 * time.Millisecond)
			}
			if err != nil {
				return fmt.Errorf("join %s: %w", ep.Addr, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
		for d.Size() > n {
			var err error
			for attempt := 0; attempt < 10; attempt++ {
				if err = d.Depart(d.Size() - 1); err == nil {
					break
				}
				time.Sleep(25 * time.Millisecond)
			}
			if err != nil {
				return fmt.Errorf("depart: %w", err)
			}
			time.Sleep(50 * time.Millisecond)
		}
		return nil
	}()
	if churnErr != nil {
		close(stop)
		wg.Wait()
		return churnErr
	}

	// Epoch agreement among survivors. The worker traffic above is what
	// carries the epochs to the instances no announce reached, so keep
	// it running until the poll succeeds.
	maxEpoch := func() uint64 {
		var m uint64
		for _, in := range d.Instances() {
			if e := in.Table().Epoch; e > m {
				m = e
			}
		}
		return m
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		want, lagging := maxEpoch(), ""
		for _, in := range d.Instances() {
			if e := in.Table().Epoch; e != want {
				lagging = fmt.Sprintf("%s at epoch %d, want %d", in.ID(), e, want)
				break
			}
		}
		if lagging == "" {
			break
		}
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			return fmt.Errorf("epochs never agreed (%s; stale=%d pulls=%d advanced=%d)",
				lagging,
				mreg.Counter("zht.membership.stale_detected").Value(),
				mreg.Counter("zht.membership.gossip.pulls").Value(),
				mreg.Counter("zht.membership.gossip.advanced").Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	d.Drain()

	// Replica digest convergence on the post-churn ring.
	final := d.Instance(0).Table()
	byID := make(map[ring.InstanceID]*core.Instance)
	for _, in := range d.Instances() {
		byID[in.ID()] = in
	}
	converged := func() (bool, string) {
		for p := 0; p < cfg.NumPartitions; p++ {
			owner := byID[final.OwnerOf(p).ID]
			if owner == nil {
				return false, fmt.Sprintf("partition %d owned by departed instance", p)
			}
			od := owner.PartitionDigest(p)
			for _, r := range final.ReplicasOf(p, cfg.Replicas) {
				rep := byID[r.ID]
				if rep == nil || r.ID == owner.ID() {
					continue
				}
				if !reflect.DeepEqual(od, rep.PartitionDigest(p)) {
					return false, fmt.Sprintf("partition %d replica %s", p, r.ID)
				}
			}
		}
		return true, ""
	}
	deadline = time.Now().Add(15 * time.Second)
	for {
		ok, where := converged()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas never reached digest equality after churn (stuck at %s)", where)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Zero lost acked writes, read through a fresh client.
	verifier, err := d.NewClient()
	if err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	if acked < ops/2 {
		return fmt.Errorf("workload too thin: only %d acked ops (want >= %d, %d errors)", acked, ops/2, errs)
	}
	checked := 0
	for key, want := range expected {
		if tainted[key] {
			continue
		}
		v, err := verifier.Lookup(key)
		if err != nil {
			return fmt.Errorf("acked key %s unreadable: %w", key, err)
		}
		if string(v) != string(want) {
			return fmt.Errorf("acked state of %s lost: got %q want %q", key, v, want)
		}
		checked++
	}
	for key := range removed {
		if tainted[key] {
			continue
		}
		if v, err := verifier.Lookup(key); err == nil {
			return fmt.Errorf("removed key %s resurfaced as %q", key, v)
		} else if !errors.Is(err, core.ErrNotFound) {
			return fmt.Errorf("removed key %s: unexpected error %w", key, err)
		}
	}

	// The data must have moved through the throttled migration engine,
	// not a lucky empty ring.
	if c := mreg.Counter("zht.migrate.cutovers").Value(); c < 1 {
		return fmt.Errorf("no migration cutovers recorded")
	}
	if b := mreg.Counter("zht.migrate.bytes").Value(); b < 1 {
		return fmt.Errorf("no migrated bytes recorded")
	}
	if a := mreg.Counter("zht.membership.gossip.advanced").Value(); a < 1 {
		return fmt.Errorf("epochs converged without a gossip advance")
	}
	fmt.Printf("  %d acked (%d errs), %d keys verified; cutovers=%d pairs=%d bytes=%d stale=%d advanced=%d\n",
		acked, errs, checked,
		mreg.Counter("zht.migrate.cutovers").Value(),
		mreg.Counter("zht.migrate.pairs").Value(),
		mreg.Counter("zht.migrate.bytes").Value(),
		mreg.Counter("zht.membership.stale_detected").Value(),
		mreg.Counter("zht.membership.gossip.advanced").Value())
	return nil
}
