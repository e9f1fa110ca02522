package tenant_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zht/internal/chaos"
	"zht/internal/core"
	"zht/internal/metrics"
	"zht/internal/tenant"
)

// TestNoisyNeighborIsolation is the tenancy subsystem's chaos check:
// a quota-capped tenant flooding the deployment at many times its
// allowance must be shed at the admission gate (StatusBusy), and the
// well-behaved tenant sharing the deployment must keep completing its
// ops, reading back its own writes, with a sane tail. The latency
// bound is absolute and generous — an in-process deployment answers
// in microseconds, so a p99 past 100ms means the calm tenant queued
// behind the flood rather than being isolated from it. After the
// flood, the namespaces must still hold: a key the noisy tenant writes
// is invisible under the calm tenant's prefix. Each tenant scopes its
// keys with tenant.Prefix, as the memcached gateway does. `make tenant-smoke`
// runs it on fresh seeds (see chaos.Seeds).
func TestNoisyNeighborIsolation(t *testing.T) {
	for _, seed := range chaos.Seeds(t, 3, 1) {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			noisyNeighbor(t, seed)
		})
	}
}

func noisyNeighbor(t *testing.T, seed int64) {
	treg := tenant.NewRegistry()
	if err := treg.Register(tenant.Tenant{Name: "noisy", Rate: 500, Burst: 50}); err != nil {
		t.Fatal(err)
	}
	if err := treg.Register(tenant.Tenant{Name: "calm", Rate: 1e7, Burst: 1e6}); err != nil {
		t.Fatal(err)
	}
	mreg := metrics.NewRegistry()
	adm := tenant.NewAdmission(treg, tenant.AdmissionOptions{Metrics: mreg})
	cfg := core.Config{
		NumPartitions: 32,
		Replicas:      1,
		RetryBase:     time.Millisecond,
		RetryMax:      4 * time.Millisecond,
		OpRetries:     1,
		OpDeadline:    2 * time.Second,
		Admission:     adm,
		Metrics:       mreg,
	}
	d, _, err := core.BootstrapInproc(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const calmOps = 400
	var flooding atomic.Bool
	flooding.Store(true)
	var wg, started sync.WaitGroup
	// The noisy tenant floods from 8 goroutines with no pacing —
	// roughly an order of magnitude more offered load than its bucket
	// refills. Errors (ErrUnavailable after busy retries exhaust) are
	// the throttle working, not failures.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		started.Add(1)
		go func(g int) {
			defer wg.Done()
			noisy, err := d.NewClient()
			if err != nil {
				t.Error(err)
				started.Done()
				return
			}
			for i := 0; flooding.Load(); i++ {
				noisy.Insert(tenant.Prefix("noisy", fmt.Sprintf("flood-%d-%d", g, i)), []byte("x")) //nolint:errcheck
				if i == 0 {
					started.Done()
				}
			}
		}(g)
	}
	// Measure only while the flood is actually flowing; otherwise the
	// in-process deployment finishes the calm ops before the noisy
	// tenant has even drained its burst.
	started.Wait()

	calm, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	lats := make([]time.Duration, 0, calmOps)
	for i := 0; i < calmOps; i++ {
		key := tenant.Prefix("calm", fmt.Sprintf("calm-%d-%04d", seed, rng.Intn(calmOps)))
		val := []byte(fmt.Sprintf("v-%d-%d", seed, i))
		start := time.Now()
		if err := calm.Insert(key, val); err != nil {
			t.Fatalf("calm tenant op %d failed under noisy load: %v", i, err)
		}
		got, err := calm.Lookup(key)
		if err != nil {
			t.Fatalf("calm tenant read %d failed under noisy load: %v", i, err)
		}
		lats = append(lats, time.Since(start))
		if string(got) != string(val) {
			t.Fatalf("calm read-your-write %s: got %q want %q", key, got, val)
		}
	}
	flooding.Store(false)
	wg.Wait()

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p99 := lats[len(lats)*99/100]
	if p99 > 100*time.Millisecond {
		t.Errorf("calm tenant p99 = %v under noisy flood, want <= 100ms", p99)
	}
	if got := adm.ShedCount("noisy"); got < 1 {
		t.Errorf("noisy tenant was never shed (ShedCount = %d)", got)
	}
	if got := adm.ShedCount("calm"); got != 0 {
		t.Errorf("calm tenant was shed %d times; its quota is ample", got)
	}
	if got := mreg.Counter("zht.tenant.shed").Value(); got < 1 {
		t.Errorf("zht.tenant.shed = %d, want >= 1", got)
	}

	// Namespace isolation: once its bucket refills, the noisy tenant's
	// write lands, and the calm tenant's scope cannot see it.
	noisy, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	if err := noisy.Insert(tenant.Prefix("noisy", "iso"), []byte("noisy-owned")); err != nil {
		t.Fatalf("noisy insert after the flood: %v", err)
	}
	if _, err := calm.Lookup(tenant.Prefix("calm", "iso")); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("namespace leak: the calm tenant sees the noisy tenant's key (err=%v)", err)
	}
}
