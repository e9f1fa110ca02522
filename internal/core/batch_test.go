package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"zht/internal/metrics"
	"zht/internal/ring"
	"zht/internal/transport"
	"zht/internal/wire"
)

func TestBatchMixedOps(t *testing.T) {
	_, _, c := startDeployment(t, testCfg(), 4)
	if err := c.Insert("pre", []byte("old")); err != nil {
		t.Fatal(err)
	}
	ops := []BatchOp{
		{Op: wire.OpInsert, Key: "a", Value: []byte("va")},
		{Op: wire.OpLookup, Key: "pre"},
		{Op: wire.OpInsert, Key: "b", Value: []byte("vb")},
		{Op: wire.OpLookup, Key: "absent"},
		{Op: wire.OpAppend, Key: "a", Value: []byte("+1")},
		{Op: wire.OpLookup, Key: "a"},
		{Op: wire.OpRemove, Key: "b"},
		{Op: wire.OpLookup, Key: "b"},
	}
	res, err := c.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(ops) {
		t.Fatalf("got %d results for %d ops", len(res), len(ops))
	}
	for i, wantErr := range []error{nil, nil, nil, ErrNotFound, nil, nil, nil, ErrNotFound} {
		if !errors.Is(res[i].Err, wantErr) && !(wantErr == nil && res[i].Err == nil) {
			t.Fatalf("op %d: err = %v, want %v", i, res[i].Err, wantErr)
		}
	}
	if string(res[1].Value) != "old" {
		t.Errorf("lookup pre = %q", res[1].Value)
	}
	// Same-key ops applied in input order: insert then append.
	if string(res[5].Value) != "va+1" {
		t.Errorf("lookup a = %q, want va+1", res[5].Value)
	}
}

func TestBatchRejectsUnsupportedOp(t *testing.T) {
	_, _, c := startDeployment(t, testCfg(), 2)
	if _, err := c.Batch([]BatchOp{{Op: wire.OpCas, Key: "k"}}); err == nil {
		t.Fatal("batch accepted an unsupported op")
	}
}

func TestBatchEmpty(t *testing.T) {
	_, _, c := startDeployment(t, testCfg(), 2)
	res, err := c.Batch(nil)
	if err != nil || res != nil {
		t.Fatalf("empty batch: %v %v", res, err)
	}
}

// seqApply executes one BatchOp through the single-op client API,
// producing the result Batch must match.
func seqApply(c *Client, op BatchOp) BatchResult {
	switch op.Op {
	case wire.OpInsert:
		return BatchResult{Err: c.Insert(op.Key, op.Value)}
	case wire.OpLookup:
		v, err := c.Lookup(op.Key)
		return BatchResult{Value: v, Err: err}
	case wire.OpRemove:
		return BatchResult{Err: c.Remove(op.Key)}
	case wire.OpAppend:
		return BatchResult{Err: c.Append(op.Key, op.Value)}
	}
	return BatchResult{Err: fmt.Errorf("bad op")}
}

// TestBatchEquivalenceRandomizedAcrossMigration drives a randomized
// mixed-op workload through Batch on one deployment and through
// sequential single ops on an identical twin, asserting every per-op
// result is byte-identical — while a live migration (a node joining
// and pulling partitions) crosses the batched run midway.
func TestBatchEquivalenceRandomizedAcrossMigration(t *testing.T) {
	cfg := testCfg()
	dA, _, cA := startDeployment(t, cfg, 4) // batched, with migration
	_, _, cB := startDeployment(t, cfg, 4)  // sequential reference

	rng := rand.New(rand.NewSource(7))
	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprintf("eq-key-%02d", i)
	}
	randOps := func(n int) []BatchOp {
		ops := make([]BatchOp, n)
		for i := range ops {
			op := BatchOp{Key: keys[rng.Intn(len(keys))]}
			switch rng.Intn(4) {
			case 0:
				op.Op = wire.OpInsert
				op.Value = []byte(fmt.Sprintf("v%d", rng.Intn(1000)))
			case 1:
				op.Op = wire.OpLookup
			case 2:
				op.Op = wire.OpRemove
			case 3:
				op.Op = wire.OpAppend
				op.Value = []byte(fmt.Sprintf("+%d", rng.Intn(10)))
			}
			ops[i] = op
		}
		return ops
	}

	const rounds = 30
	joinDone := make(chan error, 1)
	for round := 0; round < rounds; round++ {
		if round == rounds/3 {
			go func() {
				_, err := dA.Join(Endpoint{Addr: "zht-join-eq", Node: "node-join-eq"})
				joinDone <- err
			}()
		}
		ops := randOps(32)
		resA, err := cA.Batch(ops)
		if err != nil {
			t.Fatalf("round %d: batch: %v", round, err)
		}
		for i, op := range ops {
			resB := seqApply(cB, op)
			if (resA[i].Err == nil) != (resB.Err == nil) || (resB.Err != nil && !errors.Is(resA[i].Err, errTarget(resB.Err))) {
				t.Fatalf("round %d op %d (%s %q): batch err %v, sequential err %v",
					round, i, op.Op, op.Key, resA[i].Err, resB.Err)
			}
			if !bytes.Equal(resA[i].Value, resB.Value) {
				t.Fatalf("round %d op %d (%s %q): batch value %q, sequential value %q",
					round, i, op.Op, op.Key, resA[i].Value, resB.Value)
			}
		}
	}
	if err := <-joinDone; err != nil {
		t.Fatalf("join during batched run: %v", err)
	}
	// Final state equivalence: every key reads back byte-identical.
	for _, k := range keys {
		vA, errA := cA.Lookup(k)
		vB, errB := cB.Lookup(k)
		if (errA == nil) != (errB == nil) || !bytes.Equal(vA, vB) {
			t.Fatalf("final state for %q: batched %q/%v, sequential %q/%v", k, vA, errA, vB, errB)
		}
	}
}

// errTarget maps a reference error to the sentinel Batch results are
// matched against with errors.Is.
func errTarget(err error) error {
	for _, sentinel := range []error{ErrNotFound, ErrExists, ErrCasMismatch, ErrUnavailable} {
		if errors.Is(err, sentinel) {
			return sentinel
		}
	}
	return err
}

// envCounter wraps a deployment's transport and counts, per
// destination, the batch envelopes it carries: synchronous replica
// envelopes apart from everything else, which in these tests is the
// client's envelopes. Only a synchronous replica round sends legs
// through CallBatch; queued legs travel as prebuilt envelopes (Call).
// The client starts its envelopes when it fans out (StartBatch).
type envCounter struct {
	transport.Caller
	mu     sync.Mutex
	sync   map[string]int
	client map[string]int
}

func (c *envCounter) count(addr string, reqs []*wire.Request) {
	c.mu.Lock()
	if len(reqs) > 0 && reqs[0].Op == wire.OpReplicate {
		c.sync[addr]++
	} else {
		c.client[addr]++
	}
	c.mu.Unlock()
}

func (c *envCounter) CallBatch(addr string, reqs []*wire.Request) ([]*wire.Response, error) {
	c.count(addr, reqs)
	return c.Caller.CallBatch(addr, reqs)
}

func (c *envCounter) StartBatch(addr string, reqs []*wire.Request) transport.Pending {
	c.count(addr, reqs)
	return c.Caller.StartBatch(addr, reqs)
}

// startCountedDeployment is startDeployment with every envelope the
// instances and the client send counted.
func startCountedDeployment(t *testing.T, cfg Config, n int) (*Deployment, *transport.Registry, *Client, *envCounter) {
	t.Helper()
	reg := transport.NewRegistry()
	ec := &envCounter{Caller: reg.NewClient(), sync: map[string]int{}, client: map[string]int{}}
	d, err := Bootstrap(cfg, InprocEndpoints(n), func(addr string, h transport.Handler) (transport.Listener, error) {
		return reg.Listen(addr, h)
	}, ec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	c, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	return d, reg, c, ec
}

// copiesOf counts the instances whose local store holds key.
func copiesOf(d *Deployment, key string) int {
	n := 0
	for _, in := range d.Instances() {
		if in.Handle(&wire.Request{Op: wire.OpLookup, Key: key, Flags: wire.FlagReplicaRead}).Status == wire.StatusOK {
			n++
		}
	}
	return n
}

// mustBatch runs ops as one Batch and fails on any sub-op error.
func mustBatch(t *testing.T, c *Client, ops []BatchOp) {
	t.Helper()
	res, err := c.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("op %d (%s %q): %v", i, ops[i].Op, ops[i].Key, r.Err)
		}
	}
}

// TestBatchReplicationCoalesced verifies that a server envelope
// replicates with one synchronous round trip per destination, not one
// per partition: 256 inserts spread over ~225 of 1024 partitions on
// two instances cost each instance at most one replica envelope per
// envelope it served, and every key still ends on two copies.
func TestBatchReplicationCoalesced(t *testing.T) {
	cfg := Config{NumPartitions: 1024, Replicas: 1, RetryBase: time.Millisecond}
	d, _, c, ec := startCountedDeployment(t, cfg, 2)
	const n = 256
	ops := make([]BatchOp, n)
	for i := range ops {
		ops[i] = BatchOp{Op: wire.OpInsert, Key: fmt.Sprintf("rep-%03d", i), Value: []byte(fmt.Sprintf("v%03d", i))}
	}
	mustBatch(t, c, ops)
	d.Drain()

	a, b := d.Instance(0).Addr(), d.Instance(1).Addr()
	ec.mu.Lock()
	served := map[string]int{a: ec.client[a], b: ec.client[b]}
	// Each instance's replica envelopes land on the other one.
	legs := map[string]int{a: ec.sync[b], b: ec.sync[a]}
	ec.mu.Unlock()
	for _, addr := range []string{a, b} {
		if served[addr] == 0 {
			t.Fatalf("%s served no envelope (client envelopes %v)", addr, served)
		}
		if legs[addr] < 1 || legs[addr] > served[addr] {
			t.Errorf("%s sent %d sync replica envelopes for %d served envelopes, want 1..%d",
				addr, legs[addr], served[addr], served[addr])
		}
	}
	for _, op := range ops {
		if got := copiesOf(d, op.Key); got != 2 {
			t.Fatalf("%q stored on %d copies, want 2", op.Key, got)
		}
	}
}

// TestBatchStragglerPromotion pins the round structure of the batched
// fan-out at Replicas=2 under QUORUM (copies 3, two acks): with every
// key's first replica down, round 0's synchronous envelope fails, each
// group is promoted to a synchronous leg in round 1, its second replica
// acks, and every sub-op still succeeds — with the failed legs counted.
func TestBatchStragglerPromotion(t *testing.T) {
	mreg := metrics.NewRegistry()
	cfg := Config{
		NumPartitions: 64, Replicas: 2, RetryBase: time.Millisecond,
		WriteLevel: wire.ConsistencyQuorum, Metrics: mreg,
	}
	d, reg, c, ec := startCountedDeployment(t, cfg, 4)
	table := d.Instance(0).Table()
	victim := d.Instance(1)
	var ops []BatchOp
	for i := 0; len(ops) < 32; i++ {
		key := fmt.Sprintf("promo-%d", i)
		p := table.Partition(victim.hashf(key))
		if reps := table.ReplicasOf(p, 2); table.OwnerOf(p).ID != victim.ID() && reps[0].ID == victim.ID() {
			ops = append(ops, BatchOp{Op: wire.OpInsert, Key: key, Value: []byte("v")})
		}
	}
	reg.SetDown(victim.Addr(), true)
	mustBatch(t, c, ops)
	d.Drain()

	if got := mreg.Counter("zht.core.replica.sync_errors").Value(); got < int64(len(ops)) {
		t.Errorf("sync_errors = %d, want >= %d (one failed first-replica leg per key)", got, len(ops))
	}
	ec.mu.Lock()
	promoted := 0
	for addr, n := range ec.sync {
		if addr != victim.Addr() {
			promoted += n
		}
	}
	ec.mu.Unlock()
	if promoted == 0 {
		t.Error("no synchronous replica envelope reached a second replica")
	}
	for _, op := range ops {
		if got := copiesOf(d, op.Key); got != 2 {
			t.Fatalf("%q stored on %d copies, want 2 (owner + promoted second replica)", op.Key, got)
		}
	}
}

// TestConcurrentReplicatedBatchesConverge runs replicated batches and
// single ops over one small key set from several goroutines while a
// node joins — envelopes write the same keys concurrently and
// migrations drain the partitions' in-flight counts — and then requires
// every key's copies to agree: the stamps the stores drew ordered each
// key's legs under contention, and nothing deadlocked. Random per-call
// latency widens the window in which a leg could overtake an earlier
// one for its key.
func TestConcurrentReplicatedBatchesConverge(t *testing.T) {
	cfg := Config{NumPartitions: 64, Replicas: 2, RetryBase: time.Millisecond}
	d, reg, c := startDeployment(t, cfg, 4)
	reg.SetLatency(func(string) time.Duration { return time.Duration(rand.Intn(200)) * time.Microsecond })
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("conc-%02d", i)
	}
	randOp := func(rng *rand.Rand, w int) BatchOp {
		op := BatchOp{Key: keys[rng.Intn(len(keys))], Value: []byte(fmt.Sprintf("w%d-%d", w, rng.Intn(1000)))}
		switch rng.Intn(4) {
		case 0, 1:
			op.Op = wire.OpInsert
		case 2:
			op.Op = wire.OpAppend
		default:
			op.Op, op.Value = wire.OpRemove, nil
		}
		return op
	}
	check := func(op BatchOp, err error) {
		if err != nil && !(op.Op == wire.OpRemove && errors.Is(err, ErrNotFound)) {
			t.Errorf("%s %q: %v", op.Op, op.Key, err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for round := 0; round < 100; round++ {
				if w%3 == 2 {
					// Single ops write the envelopes' keys too.
					op := randOp(rng, w)
					check(op, seqApply(c, op).Err)
					continue
				}
				ops := make([]BatchOp, 24)
				for i := range ops {
					ops[i] = randOp(rng, w)
				}
				res, err := c.Batch(ops)
				if err != nil {
					t.Error(err)
					return
				}
				for i, r := range res {
					check(ops[i], r.Err)
				}
			}
		}(w)
	}
	if _, err := d.Join(Endpoint{Addr: "zht-join-conc", Node: "node-join-conc"}); err != nil {
		t.Error(err)
	}
	wg.Wait()
	d.Drain()

	table := d.Instance(0).Table()
	byID := map[ring.InstanceID]*Instance{}
	for _, in := range d.Instances() {
		byID[in.ID()] = in
	}
	for _, k := range keys {
		p := table.Partition(d.Instance(0).hashf(k))
		holders := append([]ring.Instance{table.OwnerOf(p)}, table.ReplicasOf(p, cfg.Replicas)...)
		var want *wire.Response
		for _, h := range holders {
			got := byID[h.ID].Handle(&wire.Request{Op: wire.OpLookup, Key: k, Flags: wire.FlagReplicaRead})
			if want == nil {
				want = got
				continue
			}
			if got.Status != want.Status || !bytes.Equal(got.Value, want.Value) {
				t.Errorf("%q diverged: %s %s=%q, %s %s=%q", k,
					holders[0].ID, want.Status, want.Value, h.ID, got.Status, got.Value)
			}
		}
	}
}

// TestBatchInsertThenRemoveReplicated checks that two mutations of one
// key inside one envelope reach the replica in apply order: the key
// ends absent everywhere.
func TestBatchInsertThenRemoveReplicated(t *testing.T) {
	cfg := Config{NumPartitions: 64, Replicas: 1, RetryBase: time.Millisecond}
	d, _, c := startDeployment(t, cfg, 2)
	mustBatch(t, c, []BatchOp{
		{Op: wire.OpInsert, Key: "ephemeral", Value: []byte("v")},
		{Op: wire.OpRemove, Key: "ephemeral"},
	})
	d.Drain()
	if got := copiesOf(d, "ephemeral"); got != 0 {
		t.Fatalf("removed key still stored on %d copies", got)
	}
}

// TestBatchSurvivesFailedNode verifies the straggler path: a batch
// against a table pointing at a dead node must re-route and settle
// every sub-op.
func TestBatchSurvivesFailedNode(t *testing.T) {
	cfg := testCfg()
	cfg.opRetries = 1
	cfg.OpDeadline = 5 * time.Second
	d, reg, c := startDeployment(t, cfg, 4)
	if err := c.Insert("pre-fail", []byte("v")); err != nil {
		t.Fatal(err)
	}
	reg.SetDown(d.Instance(1).Addr(), true)
	ops := make([]BatchOp, 40)
	for i := range ops {
		ops[i] = BatchOp{Op: wire.OpInsert, Key: fmt.Sprintf("bf-%02d", i), Value: []byte("v")}
	}
	res, err := c.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("op %d after node failure: %v", i, r.Err)
		}
	}
}

// TestSyncReplicationErrorsCounted covers the satellite fix: a failed
// synchronous replication leg (single-op and batched) must increment
// zht.core.replica.sync_errors instead of vanishing silently.
func TestSyncReplicationErrorsCounted(t *testing.T) {
	mreg := metrics.NewRegistry()
	// WriteLevel One: the first replica leg is still attempted
	// synchronously (and its failure counted), but the ack does not
	// depend on it — the scenario writes into a dead replica on purpose.
	cfg := Config{
		NumPartitions: 32, Replicas: 1, RetryBase: time.Millisecond,
		WriteLevel: wire.ConsistencyOne, Metrics: mreg,
	}
	d, reg, c := startDeployment(t, cfg, 3)
	counter := mreg.Counter("zht.core.replica.sync_errors")

	// Find a key whose primary is alive but whose first replica is the
	// node we take down.
	table := d.Instance(0).Table()
	victim := d.Instance(2)
	var key string
	for i := 0; ; i++ {
		key = fmt.Sprintf("sync-err-%d", i)
		p := table.Partition(d.Instance(0).hashf(key))
		reps := table.ReplicasOf(p, 1)
		if table.OwnerOf(p).ID != victim.ID() && len(reps) == 1 && reps[0].ID == victim.ID() {
			break
		}
	}
	reg.SetDown(victim.Addr(), true)

	if err := c.Insert(key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if got := counter.Value(); got < 1 {
		t.Fatalf("sync_errors = %d after failed single-op sync leg, want >= 1", got)
	}
	before := counter.Value()
	res, err := c.Batch([]BatchOp{{Op: wire.OpInsert, Key: key, Value: []byte("v2")}})
	if err != nil || res[0].Err != nil {
		t.Fatalf("batch insert: %v %v", err, res)
	}
	if got := counter.Value(); got <= before {
		t.Fatalf("sync_errors = %d after failed batched sync leg, want > %d", got, before)
	}
}

// TestGroupOrdersByPartition: the client sends each destination's
// sub-ops in partition order, and in input order within a partition, so
// a key's ops keep their input order and the instance's sort of the
// envelope finds its input already in order.
func TestGroupOrdersByPartition(t *testing.T) {
	_, _, c := startDeployment(t, Config{NumPartitions: 64}, 3)
	table := c.snapshot()
	const n = 200
	rt := getRoute(n)
	defer rt.release()
	index := make(map[*wire.Request]int, n)
	for i, r := range rt.reqs {
		r.Op, r.Key = wire.OpInsert, fmt.Sprintf("order-%d", i%70)
		index[r] = i
	}
	rt.left = n
	msgs := c.group(rt, table)
	if len(msgs) != len(table.Instances) {
		t.Fatalf("%d messages for %d instances", len(msgs), len(table.Instances))
	}
	sent := 0
	for _, m := range msgs {
		lastP, lastI := -1, -1
		for _, r := range m.reqs {
			p, i := table.Partition(c.hashf(r.Key)), index[r]
			if owner := table.OwnerOf(p); owner.Addr != m.addr {
				t.Fatalf("%s (partition %d, owner %s) sent to %s", r.Key, p, owner.Addr, m.addr)
			}
			if p < lastP || p == lastP && i < lastI {
				t.Fatalf("to %s: request %d (partition %d) after request %d (partition %d)", m.addr, i, p, lastI, lastP)
			}
			lastP, lastI = p, i
			sent++
		}
	}
	if sent != n {
		t.Fatalf("%d of %d requests sent", sent, n)
	}
}
