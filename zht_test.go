package zht_test

import (
	"errors"
	"fmt"
	"testing"

	"zht"
	"zht/internal/transport"
)

// TestPublicAPIQuickstart exercises the documented quick-start flow
// end to end through the facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	cfg := zht.Config{NumPartitions: 256, Replicas: 1}
	d, _, err := zht.BootstrapInproc(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c, err := d.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("/dir/file", []byte("meta")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Lookup("/dir/file")
	if err != nil || string(v) != "meta" {
		t.Fatalf("Lookup = %q %v", v, err)
	}
	if err := c.Append("/dir", []byte("file;")); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove("/dir/file"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup("/dir/file"); !errors.Is(err, zht.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

// TestPublicAPIOverTCP runs a two-instance TCP deployment with a
// remote-seeded client, the way cmd/zht-server and cmd/zht-client
// deploy ZHT across machines.
func TestPublicAPIOverTCP(t *testing.T) {
	cfg := zht.Config{NumPartitions: 64, Replicas: 0}
	caller := zht.NewTCPCaller()
	defer caller.Close()

	var lns []transport.Listener
	var switches []*zht.HandlerSwitch
	var eps []zht.Endpoint
	for i := 0; i < 2; i++ {
		hs := &zht.HandlerSwitch{}
		ln, err := zht.ListenTCP("127.0.0.1:0", hs.Handle)
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		lns = append(lns, ln)
		switches = append(switches, hs)
		eps = append(eps, zht.Endpoint{Addr: ln.Addr(), Node: fmt.Sprintf("n%d", i)})
	}
	d, err := zht.Bootstrap(cfg, eps, func(addr string, h transport.Handler) (transport.Listener, error) {
		for i, ep := range eps {
			if ep.Addr == addr {
				switches[i].Set(h)
				return lns[i], nil
			}
		}
		return nil, fmt.Errorf("no listener for %s", addr)
	}, caller)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	c, err := zht.NewClientFromSeed(cfg, eps[0].Addr, caller)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("key-%02d", i)
		if err := c.Insert(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if v, err := c.Lookup(k); err != nil || string(v) != "v" {
			t.Fatalf("%s = %q %v", k, v, err)
		}
	}
}
