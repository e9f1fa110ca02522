package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"zht/internal/ring"
	"zht/internal/transport"
	"zht/internal/wire"
)

// countingDeployment boots n in-process instances — and, through the
// same listen function, every instance that joins later — behind
// handlers that count the requests of op (wire.OpDelta: membership
// frames) they handle.
func countingDeployment(t *testing.T, cfg Config, n int, op wire.Op) (*Deployment, *transport.Registry, *atomic.Int64) {
	t.Helper()
	reg := transport.NewRegistry()
	frames := new(atomic.Int64)
	d, err := Bootstrap(cfg, InprocEndpoints(n), func(addr string, h transport.Handler) (transport.Listener, error) {
		return reg.Listen(addr, func(req *wire.Request) *wire.Response {
			if req.Op == op {
				frames.Add(1)
			}
			return h(req)
		})
	}, reg.NewClient())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, reg, frames
}

// TestMembershipChangeTraffic pins what one membership change costs in
// OpDelta frames: a join, a departure and a failover are each announced
// to the instances whose copies they move, not to the whole ring, so at
// 64 instances none may cost more than 16 frames. The count includes
// the joiner's commit on the relieved instance and any full-table
// fallback. After each change one client's traffic runs until every
// instance agrees on the epoch, and the time that took is logged:
// gossip carries the change to the instances no announce reached.
func TestMembershipChangeTraffic(t *testing.T) {
	for _, n := range []int{8, 64} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			cfg := Config{NumPartitions: 4 * n, Replicas: 1, RetryBase: time.Millisecond}
			d, reg, frames := countingDeployment(t, cfg, n, wire.OpDelta)
			c, err := d.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			victim := d.Instance(n / 4)
			rng := rand.New(rand.NewSource(int64(n)))
			// agree runs inserts until every instance but the victim
			// is at one epoch, and returns how long that took.
			agree := func() time.Duration {
				start := time.Now()
				for i := 0; ; i++ {
					epochs := map[uint64]bool{}
					for _, in := range d.Instances() {
						if in != victim {
							epochs[in.Epoch()] = true
						}
					}
					if len(epochs) == 1 {
						return time.Since(start)
					}
					if time.Since(start) > 30*time.Second {
						t.Fatalf("epochs never agreed: %v after %d inserts", epochs, i)
					}
					c.Insert(fmt.Sprintf("traffic-%d", rng.Intn(1<<20)), []byte("v")) //nolint:errcheck // traffic only
				}
			}
			change := func(name string, do func() error) {
				t.Helper()
				frames.Store(0)
				if err := do(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sent := frames.Load()
				took := agree()
				t.Logf("%d instances, %s: %d OpDelta frames; epochs agreed %v later under one client's traffic", n, name, sent, took)
				if n == 64 && sent > 16 {
					t.Errorf("%s at %d instances handled %d OpDelta frames, want <= 16", name, n, sent)
				}
			}

			change("join", func() error {
				_, err := d.Join(Endpoint{Addr: "zht-newcomer", Node: "node-newcomer"})
				return err
			})
			change("depart", func() error { return d.Depart(n / 2) })
			change("failover", func() error {
				reg.SetDown(victim.Addr(), true)
				resp := d.Instance(0).Handle(&wire.Request{Op: wire.OpReport, Key: string(victim.ID())})
				if resp.Status != wire.StatusOK {
					return fmt.Errorf("report refused: %s", resp.Err)
				}
				return nil
			})
		})
	}
}

// TestBackToBackJoinsThroughStaleSeed joins three instances one after
// another through a seed whose table never advances: an instance whose
// copies no change moved hears of the change only through gossip, and
// until traffic reaches it, it hands out its old table. The first
// attempt of each later join plans on that table, and the relieved
// instance turns it down; the retry must plan on the newer table the
// refusal carried, not on the seed's again.
func TestBackToBackJoinsThroughStaleSeed(t *testing.T) {
	cfg := Config{NumPartitions: 64, Replicas: 1, RetryBase: time.Millisecond}
	d, reg, _ := startDeployment(t, cfg, 8)
	base := d.Instance(5).Table()
	stale := ring.EncodeTable(base)
	seed, err := reg.Listen("zht-stale-seed", func(*wire.Request) *wire.Response {
		return &wire.Response{Status: wire.StatusOK, Table: stale}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seed.Close() })
	for j := 0; j < 3; j++ {
		addr := fmt.Sprintf("zht-stale-join-%d", j)
		var hs HandlerSwitch
		ln, err := reg.Listen(addr, hs.Handle)
		if err != nil {
			t.Fatal(err)
		}
		newcomer := ring.Instance{ID: ring.InstanceID(addr), Addr: addr, Node: "node-" + addr}
		inst, err := Join(cfg, newcomer, seed.Addr(), reg.NewClient(), func(i *Instance) { hs.Set(i.Handle) })
		if err != nil {
			ln.Close()
			t.Fatalf("join %d through the stale seed: %v", j, err)
		}
		t.Cleanup(func() {
			ln.Close()
			inst.Close()
		})
		if got, want := inst.Epoch(), base.Epoch+uint64(j+1); got != want {
			t.Fatalf("join %d committed at epoch %d, want %d", j, got, want)
		}
	}
}

// TestJoinCommitsOnLaggingGiver joins twice at Replicas=0. The first
// join moves none of one instance's copies, so no announce tells that
// instance, and with its gossip closed nothing else does. The second
// join, planned on the newer table, relieves exactly that instance,
// whose commit then arrives one epoch ahead of its table. The joiner
// must hand it the table the join was planned on and commit, not lose
// every attempt to an epoch race.
func TestJoinCommitsOnLaggingGiver(t *testing.T) {
	cfg := Config{NumPartitions: 64, Replicas: 0, RetryBase: time.Millisecond}
	d, reg, _ := startDeployment(t, cfg, 2)
	join := func(seed string, j int) *Instance {
		t.Helper()
		addr := fmt.Sprintf("zht-lag-join-%d", j)
		var hs HandlerSwitch
		ln, err := reg.Listen(addr, hs.Handle)
		if err != nil {
			t.Fatal(err)
		}
		newcomer := ring.Instance{ID: ring.InstanceID(addr), Addr: addr, Node: "node-" + addr}
		inst, err := Join(cfg, newcomer, seed, reg.NewClient(), func(i *Instance) { hs.Set(i.Handle) })
		if err != nil {
			ln.Close()
			t.Fatalf("join %d through %s: %v", j, seed, err)
		}
		t.Cleanup(func() {
			ln.Close()
			inst.Close()
		})
		return inst
	}
	// relieved names the instance a join planned on tab relieves.
	relieved := func(tab *ring.Table, j int) ring.InstanceID {
		t.Helper()
		addr := fmt.Sprintf("zht-lag-join-%d", j)
		_, parts, err := tab.PlanJoin(ring.Instance{ID: ring.InstanceID(addr), Addr: addr})
		if err != nil {
			t.Fatal(err)
		}
		return tab.OwnerOf(parts[0]).ID
	}

	base := d.Instance(0).Table()
	first, lagger := d.Instance(0), d.Instance(1)
	if relieved(base, 0) == lagger.ID() {
		first, lagger = lagger, first
	}
	lagger.gossip.Close()
	join(first.Addr(), 0)
	if lagger.Epoch() != base.Epoch {
		t.Fatalf("%s at epoch %d after a join that moved none of its copies, want the stale %d", lagger.ID(), lagger.Epoch(), base.Epoch)
	}
	if got := relieved(first.Table(), 1); got != lagger.ID() {
		t.Fatalf("the second join relieves %s, not the lagging %s; test is vacuous", got, lagger.ID())
	}
	second := join(first.Addr(), 1)
	if got, want := lagger.Epoch(), base.Epoch+2; got != want {
		t.Fatalf("%s at epoch %d after committing the second join, want %d", lagger.ID(), got, want)
	}
	if got, want := second.Epoch(), base.Epoch+2; got != want {
		t.Fatalf("second joiner at epoch %d, want %d", got, want)
	}
}

// TestStaleManagerSeesDeparture reports a departed instance to a
// manager that no announce of the departure reached and that does not
// gossip. The accused does not answer its ping; the manager must still
// not fail it over on its old table — which would give the ring two
// different tables at one epoch — but catch up first and answer with
// the departure.
func TestStaleManagerSeesDeparture(t *testing.T) {
	cfg := Config{NumPartitions: 64, Replicas: 1, RetryBase: time.Millisecond}
	d, _, _ := startDeployment(t, cfg, 16)
	departing := d.Instance(4)
	before := departing.Table()
	delta, _, err := before.PlanDeparture(departing.ID())
	if err != nil {
		t.Fatal(err)
	}
	after, err := before.Apply(delta)
	if err != nil {
		t.Fatal(err)
	}
	holders := ring.CopyHolders(before, after, cfg.Replicas)
	var mgr *Instance
	for _, in := range d.Instances() {
		if !holders[in.ID()] {
			mgr = in
			break
		}
	}
	if mgr == nil {
		t.Fatal("every instance holds a copy the departure moves; test is vacuous")
	}
	mgr.gossip.Close() // the report is all the manager hears
	if err := d.Depart(4); err != nil {
		t.Fatal(err)
	}
	if mgr.Epoch() != before.Epoch {
		t.Fatalf("manager %s at epoch %d before the report, want the stale %d", mgr.ID(), mgr.Epoch(), before.Epoch)
	}
	resp := mgr.Handle(&wire.Request{Op: wire.OpReport, Key: string(departing.ID())})
	if resp.Status != wire.StatusOK {
		t.Fatalf("report: %v %s", resp.Status, resp.Err)
	}
	got := mgr.Table()
	if got.Epoch != after.Epoch || got.Status[got.IndexOf(departing.ID())] != ring.Departing {
		t.Fatalf("manager table at epoch %d with %s %v; want epoch %d with it departing",
			got.Epoch, departing.ID(), got.Status[got.IndexOf(departing.ID())], after.Epoch)
	}
}

// TestConcurrentChangesAtOneEpochResolve commits two failovers planned
// on one epoch at two managers: one announces its change, while the
// last holder it reaches already applied the other. The two tables of
// that epoch must resolve to the one that orders after the other
// (ring.Table.After) on every holder the announce reached and on the
// announcing manager, whichever change that is, and no delta log may
// serve the losing change afterwards.
func TestConcurrentChangesAtOneEpochResolve(t *testing.T) {
	for _, announcerWins := range []bool{true, false} {
		t.Run(fmt.Sprintf("announcer-wins=%v", announcerWins), func(t *testing.T) {
			cfg := Config{NumPartitions: 64, Replicas: 1, RetryBase: time.Millisecond}
			d, _, _ := startDeployment(t, cfg, 8)
			base := d.Instance(0).Table()
			plan := func(i int) (ring.Delta, *ring.Table) {
				delta, err := base.PlanFailure(base.Instances[i].ID, 1)
				if err != nil {
					t.Fatal(err)
				}
				nt, err := base.Apply(delta)
				if err != nil {
					t.Fatal(err)
				}
				return delta, nt
			}
			announced, announcedTable := plan(2)
			other, otherTable := plan(5)
			if otherTable.After(announcedTable) == announcerWins {
				announced, announcedTable, other, otherTable = other, otherTable, announced, announcedTable
			}
			winner := otherTable
			if announcerWins {
				winner = announcedTable
			}

			// The last alive holder in ring order has applied the other
			// change; the manager is an instance the announce skips.
			holders := ring.CopyHolders(base, announcedTable, cfg.Replicas)
			var reached []*Instance
			var mgr *Instance
			for i, in := range d.Instances() {
				switch {
				case holders[in.ID()] && announcedTable.Status[i] == ring.Alive:
					reached = append(reached, in)
				case !holders[in.ID()] && otherTable.Status[i] == ring.Alive && mgr == nil:
					mgr = in
				}
			}
			last := reached[len(reached)-1]
			if _, err := last.applyDelta(other, ring.EncodeDelta(other)); err != nil {
				t.Fatal(err)
			}

			_, err := mgr.applyAndAnnounce(base, announced)
			if announcerWins != (err == nil) || (err != nil && !errors.Is(err, errLostRace)) {
				t.Fatalf("announce: %v, want the announcer to win: %v", err, announcerWins)
			}
			want := string(ring.EncodeTable(winner))
			for _, in := range append(reached, mgr) {
				if string(ring.EncodeTable(in.Table())) != want {
					t.Errorf("%s holds the losing table of epoch %d", in.ID(), in.Epoch())
				}
				if frames, ok := in.deltaLog.Since(base.Epoch, winner.Epoch); ok {
					d, err := ring.DecodeDelta(frames[0])
					if err != nil {
						t.Fatal(err)
					}
					if got, err := base.Apply(d); err != nil || string(ring.EncodeTable(got)) != want {
						t.Errorf("%s serves the losing delta from epoch %d", in.ID(), base.Epoch)
					}
				}
			}
		})
	}
}
