package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"zht/internal/core"
	"zht/internal/hashing"
	"zht/internal/metrics"
	"zht/internal/ring"
	"zht/internal/wire"
)

// The anti-entropy convergence soak (acceptance criterion for the
// repair subsystem): after a warm load, partition one replica away,
// drive mixed mutations under the fault, heal, and keep mutating, so
// the partition falls mid-load. Then require that
//
//  1. every replica's partition digest equals its primary's — the
//     partitioned node converges through hinted-handoff replay plus
//     the anti-entropy loop (legs past the handoff cap are dropped
//     and counted; the loop is their backstop), within one
//     anti-entropy period of the handoff queue draining; and
//  2. zero acknowledged writes are lost: every key's final acked
//     state is readable afterwards.
//
// The victim is never failure-reported, so the membership table keeps
// it Alive throughout: this is a pure network partition, the exact
// fault write-time replication cannot heal on its own. `make
// repair-smoke` runs it on fresh seeds (see Seeds).
func TestAntiEntropyConvergesAfterPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence soak skipped in -short mode")
	}
	for _, seed := range Seeds(t, 3, 11) {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			antiEntropyAfterPartition(t, seed)
		})
	}
}

func antiEntropyAfterPartition(t *testing.T, seed int64) {
	mreg := metrics.NewRegistry()
	const antiEntropy = 150 * time.Millisecond
	cfg := core.Config{
		NumPartitions: 32,
		Replicas:      1,
		AntiEntropy:   antiEntropy,
		HandoffCap:    256, // force overflow: ~2.5k legs target the victim
		RetryBase:     time.Millisecond,
		OpDeadline:    2 * time.Second,
		// ONE: the soak writes into a partition whose sole replica is
		// unreachable — the point is that primaries keep acking while
		// handoff + anti-entropy carry the repair debt.
		WriteLevel: wire.ConsistencyOne,
		Metrics:    mreg,
	}
	const n = 4
	d, reg, err := core.BootstrapInproc(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	client, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}

	table := d.Instance(0).Table()
	victim := d.Instance(1)
	byID := make(map[ring.InstanceID]*core.Instance)
	for _, in := range d.Instances() {
		byID[in.ID()] = in
	}
	hashf := hashing.ByName("")

	// 10k mixed mutations over a per-seed pool of keys owned by
	// reachable primaries (keys owned by the victim would just go
	// unavailable — a different test's concern). expected tracks each
	// key's final acked state; nil means removed.
	rng := rand.New(rand.NewSource(seed))
	expected := make(map[string][]byte)
	var pool []string
	for i := 0; len(pool) < 2000; i++ {
		key := fmt.Sprintf("conv-%d-%05d", seed, i)
		p := table.Partition(hashf(key))
		if table.OwnerOf(p).ID == victim.ID() {
			continue
		}
		pool = append(pool, key)
	}
	const ops = 10000
	i := 0 // op index, running across the phases
	mutate := func(count int) {
		t.Helper()
		for end := i + count; i < end; i++ {
			key := pool[rng.Intn(len(pool))]
			switch r := rng.Float64(); {
			case r < 0.15 && expected[key] != nil:
				if err := client.Remove(key); err != nil {
					t.Fatalf("remove %s: %v", key, err)
				}
				delete(expected, key)
			case r < 0.40:
				chunk := []byte(fmt.Sprintf("+%d", i))
				if err := client.Append(key, chunk); err != nil {
					t.Fatalf("append %s: %v", key, err)
				}
				expected[key] = append(expected[key], chunk...)
			default:
				val := []byte(fmt.Sprintf("v%d", i))
				if err := client.Insert(key, val); err != nil {
					t.Fatalf("insert %s: %v", key, err)
				}
				expected[key] = append([]byte(nil), val...)
			}
		}
	}

	// Warm load; then partition the victim — unreachable, but still
	// Alive in every table, so primaries keep acking and their sync
	// legs to it fail — and load under the fault; then heal mid-load.
	mutate(ops / 4)
	reg.SetDown(victim.Addr(), true)
	mutate(ops / 2)
	if q := mreg.Counter("zht.repair.handoff.queued").Value(); q < 1 {
		t.Fatalf("no legs entered hinted handoff during the partition (queued=%d)", q)
	}
	if dr := mreg.Counter("zht.repair.handoff.dropped").Value(); dr < 1 {
		t.Fatalf("handoff cap never overflowed (dropped=%d); the anti-entropy backstop went unexercised", dr)
	}
	reg.SetDown(victim.Addr(), false)
	healed := time.Now()
	mutate(ops / 4)

	// Wait for digest equality: every partition, every replica vs its
	// primary.
	converged := func() (bool, string) {
		for p := 0; p < cfg.NumPartitions; p++ {
			owner := byID[table.OwnerOf(p).ID]
			od := owner.PartitionDigest(p)
			for _, r := range table.ReplicasOf(p, cfg.Replicas) {
				if r.ID == owner.ID() {
					continue
				}
				if !reflect.DeepEqual(od, byID[r.ID].PartitionDigest(p)) {
					return false, fmt.Sprintf("partition %d replica %s", p, r.ID)
				}
			}
		}
		return true, ""
	}
	deadline := time.Now().Add(30 * time.Second)
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
	t.Logf("digest equality %v after heal (anti-entropy period %v; handoff queued=%d replayed=%d dropped=%d, digest syncs=%d, ranges pulled=%d)",
		time.Since(healed).Round(time.Millisecond), antiEntropy,
		mreg.Counter("zht.repair.handoff.queued").Value(),
		mreg.Counter("zht.repair.handoff.replayed").Value(),
		mreg.Counter("zht.repair.handoff.dropped").Value(),
		mreg.Counter("zht.repair.digest_syncs").Value(),
		mreg.Counter("zht.repair.ranges_pulled").Value())
	if got := mreg.Counter("zht.repair.digest_syncs").Value(); got < 1 {
		t.Fatalf("digest_syncs = %d, want >= 1", got)
	}

	// Zero lost acked writes: every key's final acked state survives.
	verifier, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	for _, key := range pool {
		want, present := expected[key]
		v, err := verifier.Lookup(key)
		switch {
		case present && (err != nil || string(v) != string(want)):
			lost++
			t.Errorf("acked state of %s lost: got %q/%v want %q", key, v, err, want)
		case !present && err == nil:
			lost++
			t.Errorf("removed key %s resurfaced as %q", key, v)
		case !present && !errors.Is(err, core.ErrNotFound):
			t.Errorf("removed key %s: unexpected error %v", key, err)
		}
	}
	if lost > 0 {
		t.Fatalf("%d acked writes lost across partition + heal", lost)
	}
}
