package core

import (
	"fmt"
	"testing"
	"time"

	"zht/internal/transport"
)

// torusEndpoints lays n endpoints on a cubic torus.
func torusEndpoints(n, side int) []Endpoint {
	eps := make([]Endpoint, n)
	for i := range eps {
		eps[i] = Endpoint{
			Addr:  fmt.Sprintf("zt-%04d", i),
			Node:  fmt.Sprintf("node-%04d", i),
			Coord: [3]int{i % side, (i / side) % side, i / (side * side)},
		}
	}
	return eps
}

func torusDist(a, b [3]int, side int) int {
	d := 0
	for ax := 0; ax < 3; ax++ {
		dd := a[ax] - b[ax]
		if dd < 0 {
			dd = -dd
		}
		if side-dd < dd {
			dd = side - dd
		}
		d += dd
	}
	return d
}

// TestNetworkAwareReplicaLocality verifies the future-work topology
// feature: when endpoints give their torus coordinates, replicas (ring
// successors) sit at a smaller mean torus distance from their
// primaries than with arbitrary placement.
func TestNetworkAwareReplicaLocality(t *testing.T) {
	const side = 4 // 64 nodes on a 4x4x4 torus
	const n = side * side * side
	// Scramble the endpoint order so naive bootstrap has no
	// accidental locality.
	eps := torusEndpoints(n, side)
	for i := range eps {
		j := (i * 37) % n
		eps[i], eps[j] = eps[j], eps[i]
	}
	coordOf := map[string][3]int{}
	for _, ep := range eps {
		coordOf[ep.Node] = ep.Coord
	}

	meanReplicaDist := func(aware bool) float64 {
		cfg := Config{NumPartitions: 256, Replicas: 2, RetryBase: time.Millisecond}
		given := append([]Endpoint(nil), eps...)
		if !aware {
			// Without coordinates bootstrap keeps the scrambled order.
			for i := range given {
				given[i].Coord = [3]int{}
			}
		}
		reg := transport.NewRegistry()
		d, err := Bootstrap(cfg, given, func(addr string, h transport.Handler) (transport.Listener, error) {
			return reg.Listen(addr, h)
		}, reg.NewClient())
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		tab := d.Instance(0).Table()
		total, count := 0, 0
		for p := 0; p < tab.NumPartitions; p++ {
			owner := tab.OwnerOf(p)
			for _, r := range tab.ReplicasOf(p, 2) {
				total += torusDist(coordOf[owner.Node], coordOf[r.Node], side)
				count++
			}
		}
		return float64(total) / float64(count)
	}

	naive := meanReplicaDist(false)
	aware := meanReplicaDist(true)
	t.Logf("mean primary→replica torus distance: naive=%.2f aware=%.2f", naive, aware)
	if aware >= naive*0.7 {
		t.Errorf("network-aware placement distance %.2f not clearly below naive %.2f", aware, naive)
	}
}

// TestNetworkAwareStillCorrect runs the basic workload on a
// network-aware deployment.
func TestNetworkAwareStillCorrect(t *testing.T) {
	cfg := Config{NumPartitions: 64, Replicas: 1, RetryBase: time.Millisecond}
	reg := transport.NewRegistry()
	d, err := Bootstrap(cfg, torusEndpoints(8, 2), func(addr string, h transport.Handler) (transport.Listener, error) {
		return reg.Listen(addr, h)
	}, reg.NewClient())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("na-%03d", i)
		if err := c.Insert(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if v, err := c.Lookup(k); err != nil || string(v) != "v" {
			t.Fatalf("%s = %q %v", k, v, err)
		}
	}
}

// TestBootstrapWithoutCoordsKeepsOrder pins what every caller that
// gives no coordinates gets: the ring-order sort is stable, so the
// instance ids zht-0000, zht-0001, ... go to the endpoints in the
// order they were given.
func TestBootstrapWithoutCoordsKeepsOrder(t *testing.T) {
	eps := []Endpoint{{Addr: "c", Node: "n2"}, {Addr: "a", Node: "n0"}, {Addr: "b", Node: "n1"}}
	reg := transport.NewRegistry()
	d, err := Bootstrap(Config{NumPartitions: 16}, eps, func(addr string, h transport.Handler) (transport.Listener, error) {
		return reg.Listen(addr, h)
	}, reg.NewClient())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tab := d.Instance(0).Table()
	for i, ep := range eps {
		want := fmt.Sprintf("zht-%04d", i)
		in := d.Instance(i)
		if string(in.ID()) != want || in.Addr() != ep.Addr {
			t.Errorf("instance %d = %s at %s, want %s at %s", i, in.ID(), in.Addr(), want, ep.Addr)
		}
		if got := tab.Instances[i]; string(got.ID) != want || got.Addr != ep.Addr || got.Node != ep.Node {
			t.Errorf("table entry %d = %+v, want %s at %s on %s", i, got, want, ep.Addr, ep.Node)
		}
	}
}
