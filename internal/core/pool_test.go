package core

import (
	"fmt"
	"testing"
	"time"

	"zht/internal/metrics"
	"zht/internal/wire"
)

// TestMembershipChangesReturnPooledResponses: the control plane returns
// every pooled response it draws. Across a join and a departure of a
// loaded in-process deployment (table fetches, leaf pulls and pushes,
// digests, migration locks, announces, gossip pulls), the pool's gets
// and puts end level: every response a handler answers with is drawn
// from the pool, since the transport returns each one to it.
func TestMembershipChangesReturnPooledResponses(t *testing.T) {
	cfg := Config{NumPartitions: 32, Replicas: 1, RetryBase: time.Millisecond}
	d, _, c := startDeployment(t, cfg, 3)
	for i := 0; i < 300; i++ {
		if err := c.Insert(fmt.Sprintf("pool-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	d.Drain()
	reg := metrics.NewRegistry()
	wire.EnablePoolMetrics(reg)
	defer wire.EnablePoolMetrics(nil)
	gets, puts := reg.Counter("zht.wire.pool.gets"), reg.Counter("zht.wire.pool.puts")
	settled := func(what string) {
		t.Helper()
		d.Drain()
		deadline := time.Now().Add(5 * time.Second)
		for gets.Value() != puts.Value() {
			if time.Now().After(deadline) {
				t.Fatalf("after %s: pool gets %d, puts %d (gets - puts = %d)", what, gets.Value(), puts.Value(), gets.Value()-puts.Value())
			}
			time.Sleep(time.Millisecond)
		}
	}
	if _, err := d.Join(InprocEndpoints(4)[3]); err != nil {
		t.Fatal(err)
	}
	settled("a join")
	if err := d.Depart(1); err != nil {
		t.Fatal(err)
	}
	settled("a departure")
}
