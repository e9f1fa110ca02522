package core

import (
	"fmt"
	"testing"
	"time"

	"zht/internal/metrics"
)

// TestLargeDeployment boots 512 instances in one process — the scale
// regime the paper's HEC-Cluster evaluation covers — and checks that
// bootstrap, routing, and failure handling all behave.
func TestLargeDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("large deployment")
	}
	const n = 512
	cfg := Config{NumPartitions: 4096, Replicas: 1, RetryBase: time.Millisecond, Metrics: metrics.NewRegistry()}
	calls := cfg.Metrics.Counter("zht.transport.calls")
	start := time.Now()
	d, reg, err := BootstrapInproc(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	bootstrap := time.Since(start)
	t.Logf("bootstrap of %d instances: %s", n, bootstrap.Round(time.Millisecond))
	if bootstrap > 30*time.Second {
		t.Errorf("bootstrap took %s", bootstrap)
	}

	c, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	// Spread keys over the whole ring.
	const keys = 2000
	for i := 0; i < keys; i++ {
		if err := c.Insert(fmt.Sprintf("big-%06d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Zero-hop property: exactly one network call per op (no
	// forwarding, no table refreshes) once the table is current.
	before := calls.Value()
	const probes = 500
	for i := 0; i < probes; i++ {
		if _, err := c.Lookup(fmt.Sprintf("big-%06d", i)); err != nil {
			t.Fatal(err)
		}
	}
	callsPerOp := float64(calls.Value()-before) / probes
	if callsPerOp > 1.01 {
		t.Errorf("lookups averaged %.2f network calls; zero-hop routing should need exactly 1", callsPerOp)
	}

	// Kill one instance; the deployment absorbs it.
	victim := d.Instance(137)
	reg.SetDown(victim.Addr(), true)
	if err := c.Insert("post-large-failure", []byte("v")); err != nil {
		t.Fatalf("write after failure at scale: %v", err)
	}
}

// TestZeroHopCallCount pins the headline routing property at small
// scale: after warmup, every read costs exactly one network call.
func TestZeroHopCallCount(t *testing.T) {
	cfg := Config{NumPartitions: 64, Replicas: 0, RetryBase: time.Millisecond, Metrics: metrics.NewRegistry()}
	calls := cfg.Metrics.Counter("zht.transport.calls")
	_, _, c := startDeployment(t, cfg, 8)
	for i := 0; i < 100; i++ {
		if err := c.Insert(fmt.Sprintf("zh-%03d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	before := calls.Value()
	for i := 0; i < 100; i++ {
		if _, err := c.Lookup(fmt.Sprintf("zh-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := calls.Value() - before; got != 100 {
		t.Errorf("100 lookups used %d network calls; want exactly 100 (zero hops)", got)
	}
}
