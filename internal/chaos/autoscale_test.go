package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"zht/internal/core"
	"zht/internal/hashing"
	"zht/internal/metrics"
	"zht/internal/ring"
)

// The autoscale chaos soak (acceptance criterion for the elastic
// membership layer): double a loaded deployment one join at a time,
// then halve it one departure at a time, while (a) every worker
// client runs behind a seeded lossy network and (b) one fixed victim
// instance crashes (transport-down) for a window overlapping each
// membership change — so broadcasts are missed, migrations fail
// mid-flight and roll back, and stale members must converge through
// epoch gossip. The victim may end up failure-reported and marked
// Failed (the ring's fail-stop model has no rejoin), which is itself
// part of the chaos: failover promotion must then keep its keys
// readable. The invariants:
//
//  1. No acked write is ever lost: every key whose last mutation was
//     acknowledged (and never followed by an ambiguous failure) reads
//     back with that state after the churn heals.
//  2. Every instance still Alive in the final table converges to the
//     final ring epoch, and every alive replica's partition digest
//     matches its partition authority's.
//  3. Client latency stays bounded through the churn: the overall p99
//     never exceeds the operation deadline.
func TestAutoscaleChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("autoscale soak skipped in -short mode")
	}
	mreg := metrics.NewRegistry()
	cfg := core.Config{
		NumPartitions:  64,
		Replicas:       1,
		AntiEntropy:    25 * time.Millisecond,
		OpRetries:      3,
		RetryBase:      time.Millisecond,
		RetryMax:       10 * time.Millisecond,
		OpDeadline:     3 * time.Second,
		MigrateRate:    1 << 20, // 1 MiB/s keeps rebalances from starving traffic
		GossipCooldown: 5 * time.Millisecond,
		Metrics:        mreg,
	}
	const n = 4
	d, reg, err := core.BootstrapInproc(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Workers: each owns a chaos-wrapped client (steady seeded packet
	// loss), a private key space, and its own view of acked state. An
	// op error taints the key (its state is ambiguous: the mutation may
	// or may not have applied); a later acked op on the same key
	// untaints it. Only untainted keys are verified — that is exactly
	// the "no acked write lost" contract.
	const workers = 4
	const keysPerWorker = 300
	// Worker w's fault stream is seeded chaosSeed+w and its op stream
	// opSeed+w; `make flake` prints this line for every failing run.
	const chaosSeed, opSeed = 100, 1000
	t.Logf("seeds: chaos %d+w, ops %d+w, w < %d", chaosSeed, opSeed, workers)
	type workerState struct {
		expected map[string][]byte
		removed  map[string]bool // last acked op was a remove
		tainted  map[string]bool
		acked    int
		errs     int
	}
	states := make([]*workerState, workers)
	var (
		wg   sync.WaitGroup
		stop = make(chan struct{})
	)
	for w := 0; w < workers; w++ {
		ws := &workerState{
			expected: make(map[string][]byte),
			removed:  make(map[string]bool),
			tainted:  make(map[string]bool),
		}
		states[w] = ws
		sc := &Scenario{Steps: []Step{
			{At: 0, Label: "steady loss", Rules: []Rule{Lossy("", "", 0.05)}},
		}}
		chaosCaller := Wrap(reg.NewClient(), sc, Options{Seed: int64(chaosSeed + w), LossTimeout: 10 * time.Millisecond})
		client, err := core.NewClient(cfg, d.Instance(0).Table(), chaosCaller)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, ws *workerState) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(opSeed + w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("as-%d-%04d", w, rng.Intn(keysPerWorker))
				switch r := rng.Float64(); {
				case r < 0.10 && ws.expected[key] != nil:
					if err := client.Remove(key); err != nil {
						ws.tainted[key] = true
						ws.errs++
						continue
					}
					delete(ws.expected, key)
					ws.removed[key] = true
					delete(ws.tainted, key)
					ws.acked++
				case r < 0.30:
					client.Lookup(key) // read traffic; no state to track
				default:
					val := []byte(fmt.Sprintf("w%d-%d", w, i))
					if err := client.Insert(key, val); err != nil {
						ws.tainted[key] = true
						ws.errs++
						continue
					}
					ws.expected[key] = val
					delete(ws.removed, key)
					delete(ws.tainted, key)
					ws.acked++
				}
			}
		}(w, ws)
	}

	// Preload, then snapshot the quiet-cluster latency baseline.
	time.Sleep(300 * time.Millisecond)
	latHist := mreg.Histogram("zht.client.op.all.latency_ns")
	baselineP99 := latHist.Quantile(0.99)

	// One fixed sacrificial victim for every crash window. Failure
	// reports filed while it is down mark it Failed permanently (the
	// ring is fail-stop); using one victim bounds the damage to a
	// single instance while still faulting every membership change.
	victim := d.Instance(1)
	chaosWindow := func() *sync.WaitGroup {
		var cw sync.WaitGroup
		cw.Add(1)
		go func() {
			defer cw.Done()
			reg.SetDown(victim.Addr(), true)
			time.Sleep(80 * time.Millisecond)
			reg.SetDown(victim.Addr(), false)
		}()
		return &cw
	}

	// Scale up: double 4 → 8, one join per crash window. Fault-induced
	// failures are acceptable (the giver or a replica may be the downed
	// victim); the join must roll back cleanly and eventually land.
	for j := 0; j < n; j++ {
		cw := chaosWindow()
		ep := core.Endpoint{Addr: fmt.Sprintf("zht-grow-%04d", j), Node: fmt.Sprintf("node-grow-%04d", j)}
		var jerr error
		for attempt := 0; attempt < 10; attempt++ {
			if _, jerr = d.Join(ep); jerr == nil {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		cw.Wait()
		if jerr != nil {
			t.Fatalf("join %d never landed: %v", j, jerr)
		}
	}
	if got := d.Size(); got != 2*n {
		t.Fatalf("scale-up ended with %d instances, want %d", got, 2*n)
	}

	// Scale down: halve 8 → 4, departing the most recent joiner each
	// round, again with a crash window overlapping the migration.
	for j := 0; j < n; j++ {
		cw := chaosWindow()
		var derr error
		for attempt := 0; attempt < 10; attempt++ {
			if derr = d.Depart(d.Size() - 1); derr == nil {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		cw.Wait()
		if derr != nil {
			t.Fatalf("departure %d never landed: %v", j, derr)
		}
	}
	if got := d.Size(); got != n {
		t.Fatalf("scale-down ended with %d instances, want %d", got, n)
	}

	close(stop)
	wg.Wait()
	d.Drain()

	// The authoritative view: the freshest table among survivors (the
	// final departure broadcast its delta to every gaining peer, so at
	// least one survivor holds the last epoch).
	byID := make(map[ring.InstanceID]*core.Instance)
	var final *ring.Table
	for _, in := range d.Instances() {
		byID[in.ID()] = in
		if tab := in.Table(); final == nil || tab.Epoch > final.Epoch {
			final = tab
		}
	}
	alive := func(id ring.InstanceID) bool {
		i := final.IndexOf(id)
		return i >= 0 && final.Status[i] == ring.Alive
	}
	// Invariant 2a: every instance still Alive agrees on the final
	// epoch (anyone who missed broadcasts during crash windows must
	// have converged through gossip). A Failed victim is exempt: the
	// ring stops talking to it, so it has no traffic to gossip over.
	deadline := time.Now().Add(20 * time.Second)
	for {
		lagging := ""
		for _, in := range d.Instances() {
			if alive(in.ID()) && in.Table().Epoch != final.Epoch {
				lagging = fmt.Sprintf("%s at %d, want %d", in.ID(), in.Table().Epoch, final.Epoch)
				break
			}
		}
		if lagging == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("alive instances never agreed on the final epoch: %s (stale=%d pulls=%d advanced=%d full=%d)",
				lagging,
				mreg.Counter("zht.membership.stale_detected").Value(),
				mreg.Counter("zht.membership.gossip.pulls").Value(),
				mreg.Counter("zht.membership.gossip.advanced").Value(),
				mreg.Counter("zht.membership.gossip.full_tables").Value())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Invariant 2b: alive replicas' digests converge to their partition
	// authority's (the owner, or its first alive replica when the owner
	// is the Failed victim).
	authority := func(p int) *core.Instance {
		if own := final.OwnerOf(p); alive(own.ID) {
			return byID[own.ID]
		}
		for _, r := range final.ReplicasOf(p, 1) {
			if alive(r.ID) {
				return byID[r.ID]
			}
		}
		return nil
	}
	converged := func() (bool, string) {
		for p := 0; p < cfg.NumPartitions; p++ {
			auth := authority(p)
			if auth == nil {
				return false, fmt.Sprintf("partition %d has no alive authority", p)
			}
			ad := auth.PartitionDigest(p)
			for _, r := range final.ReplicasOf(p, cfg.Replicas) {
				if r.ID == auth.ID() || !alive(r.ID) {
					continue
				}
				if !reflect.DeepEqual(ad, byID[r.ID].PartitionDigest(p)) {
					return false, fmt.Sprintf("partition %d replica %s", p, r.ID)
				}
			}
		}
		return true, ""
	}
	for {
		ok, where := converged()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas never reached digest equality (stuck at %s)", where)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Invariant 1: every untainted acked key reads back with its last
	// acked state through a fresh fault-free client.
	verifier, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	// A failure line names its class — the value lost or regressed, or
	// an acked remove that did not stick (tombstone-free removes,
	// DESIGN §12 anomaly 3) — and the key's partition.
	hash := hashing.ByName(cfg.HashName)
	lost, verified, acked, errsTotal := 0, 0, 0, 0
	for w, ws := range states {
		acked += ws.acked
		errsTotal += ws.errs
		for i := 0; i < keysPerWorker; i++ {
			key := fmt.Sprintf("as-%d-%04d", w, i)
			if ws.tainted[key] {
				continue
			}
			want, present := ws.expected[key]
			v, err := verifier.Lookup(key)
			switch {
			case present && (err != nil || string(v) != string(want)):
				lost++
				t.Errorf("acked write lost (value lost/regressed): %s partition %d: got %q/%v want %q",
					key, final.Partition(hash(key)), v, err, want)
			case !present && ws.removed[key] && !errors.Is(err, core.ErrNotFound):
				lost++
				t.Errorf("acked write lost (removal did not stick): %s partition %d: got %q/%v",
					key, final.Partition(hash(key)), v, err)
			}
			verified++
		}
	}
	if lost > 0 {
		t.Fatalf("%d acked writes lost across %d joins + %d departures under chaos", lost, n, n)
	}
	if acked == 0 {
		t.Fatal("soak made no progress: zero acked ops")
	}

	// Invariant 3: bounded latency inflation. The histogram is
	// cumulative, so the final p99 includes the churn window.
	p99 := latHist.Quantile(0.99)
	if p99 >= int64(cfg.OpDeadline) {
		t.Fatalf("p99 latency %v reached the op deadline %v", time.Duration(p99), cfg.OpDeadline)
	}
	t.Logf("autoscale soak: %d acked, %d ambiguous, %d keys verified, victim alive=%v; p99 %v (baseline %v); migrated %d partitions / %d pairs / %d bytes in %d cutovers (%d catch-up rounds, %d aborts, throttled %v)",
		acked, errsTotal, verified, alive(victim.ID()),
		time.Duration(p99), time.Duration(baselineP99),
		mreg.Counter("zht.migrate.partitions").Value(),
		mreg.Counter("zht.migrate.pairs").Value(),
		mreg.Counter("zht.migrate.bytes").Value(),
		mreg.Counter("zht.migrate.cutovers").Value(),
		mreg.Counter("zht.migrate.rounds").Value(),
		mreg.Counter("zht.migrate.aborts").Value(),
		time.Duration(mreg.Counter("zht.migrate.throttle_ns").Value()))
	t.Logf("membership: stale detections %d, gossip pulls %d, advanced %d, full tables %d",
		mreg.Counter("zht.membership.stale_detected").Value(),
		mreg.Counter("zht.membership.gossip.pulls").Value(),
		mreg.Counter("zht.membership.gossip.advanced").Value(),
		mreg.Counter("zht.membership.gossip.full_tables").Value())
	if mv := mreg.Counter("zht.migrate.cutovers").Value(); mv == 0 {
		t.Error("no migration cutovers recorded across 8 membership changes")
	}
	if mb := mreg.Counter("zht.migrate.bytes").Value(); mb == 0 {
		t.Error("no bytes streamed by the migration engine")
	}
}

// The gossip-only convergence test (acceptance criterion for the
// epoch piggyback): with the manager's delta broadcast suppressed for
// everyone but the instances gaining partitions, bystanders can learn
// of a membership change only by noticing newer epochs on ordinary
// traffic and pulling the missing deltas. After a join and a
// departure under load, every instance must still agree on the epoch.
func TestGossipOnlyEpochConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("gossip convergence soak skipped in -short mode")
	}
	mreg := metrics.NewRegistry()
	cfg := core.Config{
		NumPartitions:  64,
		Replicas:       1,
		AntiEntropy:    25 * time.Millisecond,
		OpRetries:      3,
		RetryBase:      time.Millisecond,
		RetryMax:       10 * time.Millisecond,
		OpDeadline:     2 * time.Second,
		GossipCooldown: 2 * time.Millisecond,
		GossipOnly:     true,
		Metrics:        mreg,
	}
	const n = 5
	d, _, err := core.BootstrapInproc(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	var (
		wg   sync.WaitGroup
		stop = make(chan struct{})
	)
	for w := 0; w < 3; w++ {
		client, err := d.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("go-%d-%04d", w, i%200)
				if err := client.Insert(key, []byte("x")); err != nil && !errors.Is(err, core.ErrUnavailable) {
					t.Errorf("insert %s: %v", key, err)
					return
				}
			}
		}(w)
	}
	time.Sleep(100 * time.Millisecond)

	if _, err := d.Join(core.Endpoint{Addr: "zht-gossip-join", Node: "node-gossip"}); err != nil {
		t.Fatalf("join: %v", err)
	}
	time.Sleep(200 * time.Millisecond) // let traffic carry the new epoch around
	if err := d.Depart(1); err != nil {
		t.Fatalf("depart: %v", err)
	}

	// Keep load flowing while polling: the piggyback needs traffic.
	deadline := time.Now().Add(15 * time.Second)
	for {
		epochs := make(map[uint64]bool)
		for _, in := range d.Instances() {
			epochs[in.Table().Epoch] = true
		}
		if len(epochs) == 1 {
			break
		}
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatalf("gossip-only epochs never converged: %v", epochs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	d.Drain()

	// With broadcasts suppressed, convergence can only have come from
	// gossip pulls — they must have fired.
	if adv := mreg.Counter("zht.membership.gossip.advanced").Value(); adv == 0 {
		t.Error("epochs converged but no gossip pull ever advanced a table — broadcast suppression is not in effect")
	}
	t.Logf("gossip-only: stale detections %d, pulls %d, advanced %d, full tables %d",
		mreg.Counter("zht.membership.stale_detected").Value(),
		mreg.Counter("zht.membership.gossip.pulls").Value(),
		mreg.Counter("zht.membership.gossip.advanced").Value(),
		mreg.Counter("zht.membership.gossip.full_tables").Value())
}
