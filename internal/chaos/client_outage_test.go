package chaos

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"zht/internal/core"
	"zht/internal/metrics"
)

// TestClientOnlyOutageHeals cuts every link of one client for about
// 100 ms while the servers stay untouched: they keep answering each
// other, so no manager ever hears of a failure and the membership
// never changes. The client's lookups time out and it reports the
// owners it cannot reach, but it must keep no record of the outage of
// its own: once the cut has healed and one breaker cooldown has passed,
// every key is served again, and the client's table is the servers'
// (same epoch, no instance Failed). `make consistency-smoke` runs it on
// fresh seeds (see Seeds); each seed drives the lookups during the cut.
func TestClientOnlyOutageHeals(t *testing.T) {
	if testing.Short() {
		t.Skip("client outage chaos run skipped in -short mode")
	}
	for _, seed := range Seeds(t, 3, 29, 31) {
		clientOnlyOutage(t, seed)
	}
}

func clientOnlyOutage(t *testing.T, seed int64) {
	t.Logf("seed %d", seed) // `make flake` prints it for every failing run
	cfg := core.Config{
		NumPartitions: 64,
		Replicas:      1,
		RetryBase:     time.Millisecond,
		OpDeadline:    60 * time.Millisecond,
	}
	const (
		n        = 4
		cutFor   = 100 * time.Millisecond
		loss     = 5 * time.Millisecond   // how long a cut call takes to fail
		cooldown = 250 * time.Millisecond // core's breakerCooldown
	)
	d, reg, err := core.BootstrapInproc(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	loader, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("outage-%d-%d", seed, i)
		if err := loader.Insert(keys[i], []byte(keys[i])); err != nil {
			t.Fatal(err)
		}
	}
	d.Drain()

	sc := &Scenario{Steps: []Step{
		{At: 0, Label: "client cut", Rules: []Rule{Partition("", "")}},
		{At: cutFor, Label: "healed"},
	}}
	mreg := metrics.NewRegistry()
	cc := Wrap(reg.NewClient(), sc, Options{Seed: seed, LossTimeout: loss, Metrics: mreg})
	t0 := time.Now() // scenario clock epoch (Wrap just started it)
	client, err := core.NewClient(cfg, d.Instance(0).Table(), cc)
	if err != nil {
		t.Fatal(err)
	}
	// Every lookup starts and ends inside the cut, so each of its
	// failure reports is lost too, and none reaches a manager after the
	// heal.
	rng := rand.New(rand.NewSource(seed))
	for time.Since(t0) < cutFor-cfg.OpDeadline-20*time.Millisecond {
		client.Lookup(keys[rng.Intn(len(keys))])
	}
	if mreg.Counter("zht.chaos.faults.cut").Value() == 0 {
		t.Fatalf("seed %d: no client call was cut", seed)
	}
	// The last failure, which restarts its circuit's cooldown, came
	// before the heal.
	time.Sleep(time.Until(t0.Add(cutFor + cooldown + 50*time.Millisecond)))

	for _, k := range keys {
		if v, err := client.Lookup(k); err != nil || string(v) != k {
			t.Fatalf("seed %d: lookup %s one cooldown after the heal = %q, %v", seed, k, v, err)
		}
	}
	tab := client.Table()
	if tab.AliveCount() != n {
		t.Errorf("seed %d: client table marks %d of %d instances not alive", seed, n-tab.AliveCount(), n)
	}
	for i := 0; i < n; i++ {
		if e := d.Instance(i).Table().Epoch; e != tab.Epoch {
			t.Errorf("seed %d: client table at epoch %d, %s at %d", seed, tab.Epoch, d.Instance(i).ID(), e)
		}
	}
}
