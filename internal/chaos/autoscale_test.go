package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
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
		NumPartitions: 64,
		Replicas:      1,
		AntiEntropy:   25 * time.Millisecond,
		OpRetries:     3,
		RetryBase:     time.Millisecond,
		RetryMax:      10 * time.Millisecond,
		OpDeadline:    3 * time.Second,
		Metrics:       mreg,
	}
	const n = 4
	d, reg, err := core.BootstrapInproc(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Workers: each owns a chaos-wrapped client (steady seeded packet
	// loss), a private key space, and a ledger of its acked state.
	const workers = 4
	const keysPerWorker = 300
	// Worker w's fault stream is seeded chaosSeed+w and its op stream
	// opSeed+w; `make flake` prints this line for every failing run.
	const chaosSeed, opSeed = 100, 1000
	t.Logf("seeds: chaos %d+w, ops %d+w, w < %d", chaosSeed, opSeed, workers)
	states := make([]*ledger, workers)
	var (
		wg   sync.WaitGroup
		stop = make(chan struct{})
	)
	for w := 0; w < workers; w++ {
		ws := newLedger()
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
		go func(w int, ws *ledger) {
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
					ws.record(key, nil, client.Remove(key))
				case r < 0.30:
					client.Lookup(key) // read traffic; no state to track
				default:
					val := []byte(fmt.Sprintf("w%d-%d", w, i))
					ws.record(key, val, client.Insert(key, val))
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
			if msg := ws.check(verifier, key); msg != "" {
				lost++
				t.Errorf("%s (partition %d)", msg, final.Partition(hash(key)))
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

// The gossip convergence test (acceptance criterion for the epoch
// piggyback and the migration engine, chaos-free): a membership change
// is announced only to the instances whose copies it moves, so
// bystanders can learn of it only by noticing newer epochs on ordinary
// traffic and pulling the missing deltas. The deployment scales up by
// two instances and back down by two — an original member first, then
// the newest — under concurrent writes, and then
//
//  1. every instance agrees on the epoch, and at least one gossip pull
//     advanced a table;
//  2. every replica's partition digest matches its owner's;
//  3. no acked write is lost: every key whose last mutation was
//     acknowledged reads back with that state through a fresh client;
//  4. the data moved through the throttled migration engine
//     (cutovers and bytes), and the workload acked at least ops/2.
//
// `make churn-smoke` runs it on fresh seeds (see Seeds).
func TestGossipOnlyEpochConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("gossip convergence soak skipped in -short mode")
	}
	for _, seed := range Seeds(t, 2, 1) {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			churnConvergence(t, seed)
		})
	}
}

func churnConvergence(t *testing.T, seed int64) {
	mreg := metrics.NewRegistry()
	cfg := core.Config{
		NumPartitions: 64,
		Replicas:      1,
		AntiEntropy:   25 * time.Millisecond,
		OpRetries:     3,
		RetryBase:     time.Millisecond,
		RetryMax:      10 * time.Millisecond,
		OpDeadline:    2 * time.Second,
		Metrics:       mreg,
	}
	const n = 4
	d, _, err := core.BootstrapInproc(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Workers: each owns a client, a private key space and a ledger of
	// its acked state. ErrUnavailable is the only error class expected
	// while instances move.
	const workers, keysPerWorker, ops = 3, 200, 1500
	states := make([]*ledger, workers)
	var (
		wg       sync.WaitGroup
		stop     = make(chan struct{})
		churning atomic.Bool
		acked    atomic.Int64 // across workers
	)
	churning.Store(true)
	for w := 0; w < workers; w++ {
		client, err := d.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		ws := newLedger()
		states[w] = ws
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("go-%d-%04d", w, rng.Intn(keysPerWorker))
				var val []byte // nil: a remove
				var err error
				if rng.Float64() < 0.10 {
					if err = client.Remove(key); errors.Is(err, core.ErrNotFound) {
						err = nil
					}
				} else {
					val = []byte(fmt.Sprintf("w%d-%d", w, i))
					err = client.Insert(key, val)
				}
				if err != nil && !errors.Is(err, core.ErrUnavailable) {
					t.Errorf("worker %d op on %s: %v", w, key, err)
					return
				}
				ws.record(key, val, err)
				if err == nil {
					acked.Add(1)
				}
				// Full speed while the ring changes and until ops are
				// acked, so migrations race writes; then a trickle that
				// keeps carrying epochs but seldom overwrites a key
				// written mid-migration before it is verified.
				if i%64 == 0 || (!churning.Load() && acked.Load() >= ops) {
					time.Sleep(time.Millisecond)
				}
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)

	// Scale up by two, then down by two, all under load. Join and Depart
	// retry internally; a change that still fails is a finding.
	step := func(what string, err error) {
		t.Helper()
		if err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("%s: %v", what, err)
		}
		time.Sleep(50 * time.Millisecond) // let traffic carry the new epoch around
	}
	for j := 0; j < 2; j++ {
		ep := core.Endpoint{Addr: fmt.Sprintf("zht-gossip-join-%d", j), Node: fmt.Sprintf("node-gossip-%d", j)}
		_, err := d.Join(ep)
		step("join "+ep.Addr, err)
	}
	step("depart an original member", d.Depart(1))
	step("depart the newest member", d.Depart(d.Size()-1))
	churning.Store(false)

	// Keep load flowing while polling: the piggyback needs traffic. The
	// workload must also reach its floor of ops/2 acked ops; a slow
	// (race-instrumented) build may need the time after the churn.
	deadline := time.Now().Add(15 * time.Second)
	for {
		epochs := make(map[uint64]bool)
		for _, in := range d.Instances() {
			epochs[in.Table().Epoch] = true
		}
		if len(epochs) == 1 && acked.Load() >= ops/2 {
			break
		}
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatalf("no convergence: epochs %v, %d acked ops (want one epoch and >= %d acked)", epochs, acked.Load(), ops/2)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	d.Drain()

	// Bystanders heard of the changes from no announce, so convergence
	// can only have come from gossip pulls — they must have fired.
	if adv := mreg.Counter("zht.membership.gossip.advanced").Value(); adv == 0 {
		t.Error("epochs converged but no gossip pull ever advanced a table — changes are still announced to bystanders")
	}
	t.Logf("gossip: stale detections %d, pulls %d, advanced %d, full tables %d",
		mreg.Counter("zht.membership.stale_detected").Value(),
		mreg.Counter("zht.membership.gossip.pulls").Value(),
		mreg.Counter("zht.membership.gossip.advanced").Value(),
		mreg.Counter("zht.membership.gossip.full_tables").Value())

	// Replica digests converge on the post-churn ring.
	final := d.Instance(0).Table()
	byID := make(map[ring.InstanceID]*core.Instance)
	for _, in := range d.Instances() {
		byID[in.ID()] = in
	}
	converged := func() (bool, string) {
		for p := 0; p < cfg.NumPartitions; p++ {
			owner := byID[final.OwnerOf(p).ID]
			if owner == nil {
				return false, fmt.Sprintf("partition %d owned by a departed instance", p)
			}
			od := owner.PartitionDigest(p)
			for _, r := range final.ReplicasOf(p, cfg.Replicas) {
				if rep := byID[r.ID]; rep != nil && rep != owner && !reflect.DeepEqual(od, rep.PartitionDigest(p)) {
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
			t.Fatalf("replicas never reached digest equality after churn (stuck at %s)", where)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// No acked write lost, read through a fresh client.
	verifier, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	errsTotal, verified := 0, 0
	for w, ws := range states {
		errsTotal += ws.errs
		for i := 0; i < keysPerWorker; i++ {
			key := fmt.Sprintf("go-%d-%04d", w, i)
			if ws.tainted[key] {
				continue
			}
			if msg := ws.check(verifier, key); msg != "" {
				t.Error(msg)
			}
			verified++
		}
	}
	// The data moved through the throttled migration engine, not a
	// lucky empty ring.
	if c := mreg.Counter("zht.migrate.cutovers").Value(); c < 1 {
		t.Error("no migration cutovers recorded")
	}
	if b := mreg.Counter("zht.migrate.bytes").Value(); b < 1 {
		t.Error("no migrated bytes recorded")
	}
	t.Logf("churn: %d acked (%d ambiguous), %d keys verified; cutovers %d, pairs %d, bytes %d",
		acked.Load(), errsTotal, verified,
		mreg.Counter("zht.migrate.cutovers").Value(),
		mreg.Counter("zht.migrate.pairs").Value(),
		mreg.Counter("zht.migrate.bytes").Value())
}

// ledger is one worker's record of the acked state of its private
// keys. An op error taints the key (its state is ambiguous: the
// mutation may or may not have applied); a later acked op on the key
// untaints it. Only untainted keys are checked — that is exactly the
// "no acked write lost" contract.
type ledger struct {
	expected map[string][]byte
	removed  map[string]bool // last acked op was a remove
	tainted  map[string]bool
	acked    int
	errs     int
}

func newLedger() *ledger {
	return &ledger{
		expected: make(map[string][]byte),
		removed:  make(map[string]bool),
		tainted:  make(map[string]bool),
	}
}

// record books one op on key: an insert of val, or a remove when val is
// nil, that answered err.
func (l *ledger) record(key string, val []byte, err error) {
	switch {
	case err != nil:
		l.tainted[key] = true
		l.errs++
		return
	case val == nil:
		delete(l.expected, key)
		l.removed[key] = true
	default:
		l.expected[key] = val
		delete(l.removed, key)
	}
	delete(l.tainted, key)
	l.acked++
}

// check reads an untainted key back through c. It returns "" when the
// key holds its last acked state, or else a line that names the class
// of loss: the value lost or regressed, or an acked remove that did
// not stick (tombstone-free removes, DESIGN §12 anomaly 3).
func (l *ledger) check(c *core.Client, key string) string {
	want, present := l.expected[key]
	v, err := c.Lookup(key)
	switch {
	case present && (err != nil || string(v) != string(want)):
		return fmt.Sprintf("acked write lost (value lost/regressed): %s: got %q/%v want %q", key, v, err, want)
	case !present && l.removed[key] && !errors.Is(err, core.ErrNotFound):
		return fmt.Sprintf("acked write lost (removal did not stick): %s: got %q/%v", key, v, err)
	}
	return ""
}
