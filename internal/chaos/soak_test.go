package chaos

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"zht/internal/core"
	"zht/internal/ring"
	"zht/internal/wire"
)

// The chaos soak: a replicated deployment driven through a scripted
// schedule of node kills, partitions, slow links, message loss, and
// ack loss. The invariants under test are the paper's reliability
// claims (§III.H–J) sharpened by this layer's deadline contract:
//
//  1. No acked write is ever lost — once Insert returns nil, the pair
//     survives every scheduled failure (kills are spaced so the
//     re-replication repair window closes between them, the paper's
//     standing assumption for tolerating repeated failures).
//  2. Every operation either resolves within the configured
//     OpDeadline (plus scheduling slack) or fails with
//     ErrUnavailable — never hangs, never retries unboundedly.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	cfg := core.Config{
		NumPartitions: 64,
		Replicas:      1, // first replica synchronous: acked ⇒ two copies
		RetryBase:     time.Millisecond,
		OpDeadline:    600 * time.Millisecond,
	}
	const n = 6
	d, reg, err := core.BootstrapInproc(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	everyone := "" // wildcard endpoint in rules
	sc := &Scenario{Steps: []Step{
		{At: 0, Label: "mild loss", Rules: []Rule{
			Lossy(everyone, everyone, 0.10),
		}},
		{At: 400 * time.Millisecond, Label: "slow + partition", Rules: []Rule{
			SlowLink(everyone, everyone, 200*time.Microsecond, time.Millisecond),
			Partition(everyone, d.Instance(4).Addr()),
		}},
		{At: 800 * time.Millisecond, Label: "loss + ack loss", Rules: []Rule{
			{To: everyone, Drop: 0.15, DropReply: 0.10},
		}},
		{At: 1200 * time.Millisecond, Label: "healed"},
	}}
	const seed = 7
	t.Logf("seeds: chaos %d", seed) // `make flake` prints it for every failing run
	chaosCaller := Wrap(reg.NewClient(), sc, Options{Seed: seed, LossTimeout: 25 * time.Millisecond})
	t0 := time.Now() // scenario clock epoch (Wrap just started it)
	client, err := core.NewClient(cfg, d.Instance(0).Table(), chaosCaller)
	if err != nil {
		t.Fatal(err)
	}

	// Writer: sequential stream of inserts through the chaos caller,
	// recording acked keys, per-op latency, and error taxonomy.
	type opResult struct {
		key     string
		acked   bool
		latency time.Duration
		err     error
	}
	var (
		results []opResult
		stop    = make(chan struct{})
		done    = make(chan struct{})
	)
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("soak-%05d", i)
			start := time.Now()
			err := client.Insert(key, []byte("v:"+key))
			results = append(results, opResult{key, err == nil, time.Since(start), err})
		}
	}()

	// kill downs a node mid-traffic, files the failure report with a
	// live manager, waits until every survivor's table agrees, then
	// drains so re-replication has restored the replication factor —
	// the spacing that makes a subsequent kill survivable.
	alive := map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true, 5: true}
	kill := func(idx int) {
		t.Helper()
		victim := d.Instance(idx)
		reg.SetDown(victim.Addr(), true)
		alive[idx] = false
		var mgr *core.Instance
		for i := 0; i < n; i++ {
			if alive[i] {
				mgr = d.Instance(i)
				break
			}
		}
		resp := mgr.Handle(&wire.Request{Op: wire.OpReport, Key: string(victim.ID())})
		if resp.Status != wire.StatusOK {
			t.Fatalf("failure report for %s rejected: %v %s", victim.ID(), resp.Status, resp.Err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			for {
				tab := d.Instance(i).Table()
				if j := tab.IndexOf(victim.ID()); j >= 0 && tab.Status[j] != ring.Alive {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("instance %d never learned of %s's failure", i, victim.ID())
				}
				time.Sleep(time.Millisecond)
			}
		}
		d.Drain()
	}

	sleepUntil := func(offset time.Duration) {
		if rem := time.Until(t0.Add(offset)); rem > 0 {
			time.Sleep(rem)
		}
	}

	sleepUntil(250 * time.Millisecond)
	kill(1)
	sleepUntil(600 * time.Millisecond)
	kill(3)
	sleepUntil(1300 * time.Millisecond) // past the healing step
	close(stop)
	<-done
	d.Drain()

	// Invariant 2: bounded resolution. Every op either succeeded or
	// failed with ErrUnavailable, within the deadline plus slack. The
	// deadline check in the client happens between calls, so the last
	// in-flight leg can overshoot by one bounded sleep (≤ LossTimeout
	// under chaos); the rest of the slack absorbs race-detector
	// scheduling, which is far coarser than a RetryBase tick.
	slack := 25*time.Millisecond + 250*time.Millisecond
	acked := 0
	var worst time.Duration
	for _, r := range results {
		if r.err != nil && !errors.Is(r.err, core.ErrUnavailable) {
			t.Errorf("op %s: unexpected error class: %v", r.key, r.err)
		}
		if r.latency > cfg.OpDeadline+slack {
			t.Errorf("op %s took %v, deadline %v+%v", r.key, r.latency, cfg.OpDeadline, slack)
		}
		if r.latency > worst {
			worst = r.latency
		}
		if r.acked {
			acked++
		}
	}
	if len(results) == 0 || acked == 0 {
		t.Fatalf("soak made no progress: %d ops, %d acked", len(results), acked)
	}
	t.Logf("soak: %d ops, %d acked, %d unavailable, worst latency %v, over %v",
		len(results), acked, len(results)-acked, worst, time.Since(t0))

	// Invariant 1: durability of every acked write, read back through
	// a fresh fault-free client after healing.
	verifier, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	for _, r := range results {
		if !r.acked {
			continue
		}
		v, err := verifier.Lookup(r.key)
		if err != nil || string(v) != "v:"+r.key {
			lost++
			t.Errorf("acked write %s lost: %q %v", r.key, v, err)
		}
	}
	if lost > 0 {
		t.Fatalf("%d acked writes lost after two kills + partitions", lost)
	}
}
