package core

import (
	"errors"
	"testing"
	"time"

	"zht/internal/ring"
	"zht/internal/transport"
	"zht/internal/wire"
)

// Edge-path coverage for the client's routing loop and membership
// maintenance.

func TestRefreshMembership(t *testing.T) {
	d, _, c := startDeployment(t, testCfg(), 3)
	before := c.Table().Epoch
	if _, err := d.Join(Endpoint{Addr: "zht-rm-join", Node: "n-rm"}); err != nil {
		t.Fatal(err)
	}
	// Client hasn't touched the moved partitions yet; its table is
	// stale until an explicit refresh.
	if err := c.RefreshMembership(); err != nil {
		t.Fatal(err)
	}
	if c.Table().Epoch <= before {
		t.Error("RefreshMembership did not advance the epoch")
	}
}

// TestRefreshMembershipAsksEveryInstance departs an instance from a
// 16-instance ring, so instance 0 — which holds none of the copies the
// departure moves and, with its gossip stopped, never catches up — keeps
// the old table. A refresh must still adopt the newest table.
func TestRefreshMembershipAsksEveryInstance(t *testing.T) {
	d, _, c := startDeployment(t, Config{NumPartitions: 64, Replicas: 1, RetryBase: time.Millisecond}, 16)
	c.gossip = nil
	bystander := d.Instance(0)
	bystander.gossip.Close()
	if err := d.Depart(4); err != nil {
		t.Fatal(err)
	}
	newest := d.Instance(5).Epoch()
	if bystander.Epoch() >= newest {
		t.Fatalf("instance 0 at epoch %d heard of the departure (epoch %d); test is vacuous", bystander.Epoch(), newest)
	}
	if err := c.RefreshMembership(); err != nil {
		t.Fatal(err)
	}
	if got := c.Table().Epoch; got != newest {
		t.Errorf("refreshed to epoch %d, want the newest, %d", got, newest)
	}
}

func TestRefreshMembershipAllDown(t *testing.T) {
	d, reg, c := startDeployment(t, Config{NumPartitions: 8, RetryBase: time.Millisecond}, 2)
	for _, in := range d.Instances() {
		reg.SetDown(in.Addr(), true)
	}
	if err := c.RefreshMembership(); err == nil {
		t.Error("refresh with whole cluster down succeeded")
	}
}

func TestClientValidation(t *testing.T) {
	reg := transport.NewRegistry()
	tab, _ := ring.New(8, []ring.Instance{{ID: "a", Addr: "a", Node: "a"}})
	if _, err := NewClient(Config{NumPartitions: 0}, tab, reg.NewClient()); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewClient(Config{NumPartitions: 8, HashName: "bogus"}, tab, reg.NewClient()); err == nil {
		t.Error("bogus hash accepted")
	}
}

func TestNewInstanceValidation(t *testing.T) {
	reg := transport.NewRegistry()
	tab, _ := ring.New(8, []ring.Instance{{ID: "a", Addr: "a", Node: "a"}})
	if _, err := NewInstance(Config{NumPartitions: 8}, ring.Instance{ID: "ghost"}, tab, reg.NewClient()); err == nil {
		t.Error("instance not in table accepted")
	}
	if _, err := NewInstance(Config{NumPartitions: -1}, ring.Instance{ID: "a"}, tab, reg.NewClient()); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestSingleInstanceTotalFailure(t *testing.T) {
	// With no replicas and the only owner dead, ops must fail with
	// ErrUnavailable rather than hang.
	cfg := Config{NumPartitions: 8, Replicas: 0, RetryBase: time.Millisecond, opRetries: 1}
	d, reg, c := startDeployment(t, cfg, 1)
	reg.SetDown(d.Instance(0).Addr(), true)
	start := time.Now()
	err := c.Insert("k", []byte("v"))
	if err == nil {
		t.Fatal("insert into dead cluster succeeded")
	}
	if !errors.Is(err, ErrUnavailable) {
		t.Errorf("error = %v, want ErrUnavailable", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Error("failure took too long; retry bounding broken")
	}
}

func TestReplicasExhausted(t *testing.T) {
	// Owner and its only replica both dead: the op must error.
	cfg := Config{NumPartitions: 8, Replicas: 1, RetryBase: time.Millisecond, opRetries: 1}
	d, reg, c := startDeployment(t, cfg, 2)
	// Insert succeeds first so we know the key's owner.
	if err := c.Insert("doomed", []byte("v")); err != nil {
		t.Fatal(err)
	}
	d.Drain()
	reg.SetDown(d.Instance(0).Addr(), true)
	reg.SetDown(d.Instance(1).Addr(), true)
	if _, err := c.Lookup("doomed"); err == nil {
		t.Error("lookup with all holders dead succeeded")
	}
}

func TestTransientGlitchRevives(t *testing.T) {
	// An instance that drops exactly one window of requests and then
	// recovers: the manager's verification ping finds it alive, the
	// report is rejected, and the client keeps using it.
	cfg := Config{NumPartitions: 16, Replicas: 1, RetryBase: time.Millisecond, opRetries: 0}
	d, reg, c := startDeployment(t, cfg, 2)
	victim := d.Instance(1)
	reg.SetDown(victim.Addr(), true)
	go func() {
		time.Sleep(3 * time.Millisecond)
		reg.SetDown(victim.Addr(), false)
	}()
	// Drive ops until one needs the victim; the report path may see
	// it back alive.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		c.Insert("glitch-key", []byte("v"))
		tab := c.Table()
		if tab.Status[tab.IndexOf(victim.ID())] == ring.Alive {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Whatever the race outcome, the cluster must still serve ops.
	if err := c.Insert("after-glitch", []byte("v")); err != nil {
		t.Fatalf("op after glitch: %v", err)
	}
}

func TestDeltaHandlerFromPeerInstance(t *testing.T) {
	// The OpMembership fetch path used by seeding.
	d, reg, _ := startDeployment(t, testCfg(), 2)
	resp := d.Instance(0).Handle(&wire.Request{Op: wire.OpMembership})
	if resp.Status != wire.StatusOK || resp.Table == nil {
		t.Fatalf("membership fetch: %v", resp.Status)
	}
	if _, err := ring.DecodeTable(resp.Table); err != nil {
		t.Fatal(err)
	}
	_ = reg
}
