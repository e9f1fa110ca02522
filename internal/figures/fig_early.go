package figures

import (
	"fmt"
	"math/rand"
	"time"

	"zht/internal/baselines/cassring"
	"zht/internal/baselines/cmpi"
	"zht/internal/baselines/memcache"
	"zht/internal/core"
	"zht/internal/fusionfs/gpfssim"
	"zht/internal/novoht"
	"zht/internal/sim"
	"zht/internal/transport"
	"zht/internal/wire"
)

// Fig01GPFS — time per file create on GPFS vs scale, one directory vs
// many directories (the motivation figure).
func Fig01GPFS(o Options) (*Series, error) {
	m := gpfssim.Default()
	s := &Series{
		ID:      "fig01",
		Title:   "GPFS time per create vs cores (model of the measured baseline)",
		Columns: []string{"cores", "many-dir (ms)", "one-dir (ms)"},
		PaperNotes: []string{
			"tens of ms at 4 cores; one-dir ~63,000 ms at 16K cores",
			"many-dir grows ~linearly past server saturation (4-32 clients)",
		},
	}
	for _, n := range []int{1, 4, 16, 64, 256, 1024, 4096, 16384} {
		s.Rows = append(s.Rows, []string{
			fmt.Sprint(n),
			ms(m.TimePerOp(n, false)),
			ms(m.TimePerOp(n, true)),
		})
	}
	return s, nil
}

// Tab01Features — the feature comparison matrix, with the dynamic
// properties probed against the actual implementations rather than
// asserted.
func Tab01Features(o Options) (*Series, error) {
	s := &Series{
		ID:      "tab01",
		Title:   "Feature comparison (probed against implementations)",
		Columns: []string{"system", "impl", "routing", "persistence", "dynamic membership", "append"},
		PaperNotes: []string{
			"Cassandra: log(N), persistent, dynamic, no append",
			"Memcached: 2(client-hash), volatile, static, no append",
			"Dynamo: 0 to log(N), persistent, dynamic, no append (not open source)",
			"ZHT: 0 to 2, persistent, dynamic, append",
		},
	}
	// Probe ZHT append.
	d, _, err := core.BootstrapInproc(core.Config{NumPartitions: 8, RetryBase: time.Millisecond, Metrics: o.Metrics}, 2)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	zc, err := d.NewClient()
	if err != nil {
		return nil, err
	}
	zhtAppend := "no"
	if err := zc.Append("probe", []byte("x")); err == nil {
		zhtAppend = "yes"
	}
	// Probe memcache append rejection.
	mcSrv := memcache.NewServer(0)
	mcAppend := "no"
	if resp := mcSrv.Handle(&wire.Request{Op: wire.OpAppend, Key: "k", Value: []byte("v")}); resp.Status == wire.StatusOK {
		mcAppend = "yes"
	}
	// Probe cassring append rejection + hop counting.
	reg := transport.NewRegistry()
	cc, err := cassring.NewCluster(4, cassring.Options{}, func(addr string, h transport.Handler) (transport.Listener, error) {
		return reg.Listen(addr, h)
	}, reg.NewClient())
	if err != nil {
		return nil, err
	}
	defer cc.Close()
	cassAppend := "no"
	if resp := cc.Nodes[0].Handle(&wire.Request{Op: wire.OpAppend, Key: "k", Value: []byte("v")}); resp.Status == wire.StatusOK {
		cassAppend = "yes"
	}
	cassDynamic := "no"
	if _, err := cc.Join(); err == nil {
		cassDynamic = "yes"
	}
	// Probe the C-MPI stand-in (Kademlia): no append.
	cmpiCluster, err := cmpi.NewCluster(4, func(addr string, h transport.Handler) (transport.Listener, error) {
		return reg.Listen(addr, h)
	})
	if err != nil {
		return nil, err
	}
	cmpiAppend := "no"
	if resp := cmpiCluster.Nodes[0].Handle(&wire.Request{Op: wire.OpAppend, Key: "k", Value: []byte("v")}); resp.Status == wire.StatusOK {
		cmpiAppend = "yes"
	}
	// Probe ZHT dynamic membership.
	zhtDynamic := "no"
	if _, err := d.Join(core.Endpoint{Addr: "tab01-join", Node: "tab01-node"}); err == nil {
		zhtDynamic = "yes"
	}
	s.Rows = [][]string{
		{"Cassandra (cassring)", "Go", "log(N)", "yes", cassDynamic, cassAppend},
		{"Memcached (memcache)", "Go", "2", "no", "no", mcAppend},
		{"C-MPI (cmpi/Kademlia)", "Go", "log(N)", "no", "no", cmpiAppend},
		{"Dynamo", "Java", "0 to log(N)", "yes", "yes", "no (proprietary; cassring is its stand-in)"},
		{"ZHT (this repo)", "Go", "0 to 2", "yes", zhtDynamic, zhtAppend},
	}
	return s, nil
}

// Fig04Partitions — latency vs partitions per instance: the paper
// shows near-flat 0.73→0.77 ms from 1 to 1K partitions, the result
// that justifies many-partitions-per-instance migration.
func Fig04Partitions(o Options) (*Series, error) {
	s := &Series{
		ID:      "fig04",
		Title:   "Latency vs partitions per instance (1 instance, real)",
		Columns: []string{"partitions", "latency (ms)"},
		PaperNotes: []string{
			"0.73 ms at 1 partition → 0.77 ms at 1K partitions (flat)",
		},
	}
	ops := o.scale(3000, 300)
	for _, parts := range []int{1, 10, 100, 1000} {
		cfg := core.Config{NumPartitions: parts, Replicas: 0, RetryBase: time.Millisecond, Metrics: o.Metrics}
		d, _, err := core.BootstrapInproc(cfg, 1)
		if err != nil {
			return nil, err
		}
		st, err := runAllToAll(d, 1, ops)
		d.Close()
		if err != nil {
			return nil, err
		}
		s.Rows = append(s.Rows, []string{fmt.Sprint(parts), ms(st.Latency())})
	}
	return s, nil
}

// Fig05Bootstrap — bootstrap time vs scale: simulator components at
// BG/P scale plus real in-process bootstrap timing.
func Fig05Bootstrap(o Options) (*Series, error) {
	s := &Series{
		ID:      "fig05",
		Title:   "Bootstrap time vs nodes (model components + real in-proc bootstrap)",
		Columns: []string{"nodes", "partition boot (s)", "neighbor list (s)", "server start (s)", "zht total (s)", "real in-proc (ms)"},
		PaperNotes: []string{
			"ZHT bootstrap ≈8 s at 1K nodes, ≈10 s at 8K (batch job start ≈150 s)",
		},
	}
	realMax := o.scale(256, 64)
	for _, n := range []int{64, 128, 256, 512, 1024, 2048, 4096, 8192} {
		b := sim.Bootstrap(n)
		real := "-"
		if n <= realMax {
			start := time.Now()
			d, _, err := core.BootstrapInproc(core.Config{NumPartitions: 8192, RetryBase: time.Millisecond, Metrics: o.Metrics}, n)
			if err != nil {
				return nil, err
			}
			el := time.Since(start)
			d.Close()
			real = ms(el)
		}
		s.Rows = append(s.Rows, []string{
			fmt.Sprint(n),
			fmt.Sprintf("%.1f", b.PartitionBoot),
			fmt.Sprintf("%.2f", b.NeighborList),
			fmt.Sprintf("%.1f", b.ServerStart),
			fmt.Sprintf("%.1f", b.NeighborList+b.ServerStart),
			real,
		})
	}
	return s, nil
}

// Fig06NoVoHT — NoVoHT vs KyotoCabinet vs BerkeleyDB vs plain map,
// latency per op at growing key counts. Scales are divided by 10
// relative to the paper (1M/10M/100M → 100K/1M/10M full, smaller in
// quick mode) to fit a laptop run; the shape — NoVoHT flat and close
// to the in-memory map, disk stores slower and degrading — is the
// result under test.
func Fig06NoVoHT(o Options) (*Series, error) {
	s, _, err := fig06(o)
	return s, err
}

// fig06 builds Figure 6 and also reports, per store, the disk reads
// per lookup at the largest key count: the structural cause of the
// latency ordering, which holds however slow the clock runs.
func fig06(o Options) (*Series, map[string]float64, error) {
	s := &Series{
		ID:      "fig06",
		Title:   "Single-node store latency vs key count (insert+get+remove avg, µs)",
		Columns: []string{"pairs", "novoht (µs)", "novoht-nopersist (µs)", "kyoto (µs)", "bdb (µs)", "map (µs)"},
		PaperNotes: []string{
			"NoVoHT ≈flat with scale; persistence adds ~3 µs; KyotoCabinet and BerkeleyDB slower and degrade with scale",
		},
	}
	// Even quick mode needs enough pairs that the disk stores outgrow
	// their caches; below that the comparison is not meaningful.
	counts := []int{o.scale(100_000, 20_000), o.scale(1_000_000, 60_000)}
	if !o.Quick {
		counts = append(counts, 4_000_000)
	}
	readsPerGet := map[string]float64{}
	for _, n := range counts {
		row := []string{fmt.Sprint(n)}
		for _, which := range []string{"novoht", "novolatile", "kyoto", "bdb", "map"} {
			lat, reads, err := storeLatency(which, n)
			if err != nil {
				return nil, nil, fmt.Errorf("%s at %d: %w", which, n, err)
			}
			row = append(row, us(lat))
			readsPerGet[which] = reads
		}
		s.Rows = append(s.Rows, row)
	}
	return s, readsPerGet, nil
}

// storeLatency measures average per-op latency of n inserts + n gets
// + n removes on the named store, and the disk reads per get.
func storeLatency(which string, n int) (time.Duration, float64, error) {
	dir, err := mkTempDir()
	if err != nil {
		return 0, 0, err
	}
	defer rmTempDir(dir)
	type kv interface {
		set(k string, v []byte) error
		get(k string) error
		del(k string) error
		close() error
		readProbe() func() uint64
	}
	var store kv
	switch which {
	case "novoht":
		store, err = openNovohtKV(novoht.Options{Path: dir + "/n.log", CompactEvery: -1, GCRatio: 0.99})
		if err != nil {
			return 0, 0, err
		}
	case "novolatile":
		store, err = openNovohtKV(novoht.Options{})
		if err != nil {
			return 0, 0, err
		}
	case "kyoto":
		store, err = openKyotoKV(dir + "/k.db")
		if err != nil {
			return 0, 0, err
		}
	case "bdb":
		store, err = openBdbKV(dir + "/b.db")
		if err != nil {
			return 0, 0, err
		}
	case "map":
		store = mapKV{m: map[string][]byte{}}
	default:
		return 0, 0, fmt.Errorf("unknown store %q", which)
	}
	defer store.close()
	// Access keys in a fixed random permutation: ZHT keys arrive in
	// hash order, so sequential-key locality (which flatters B-trees)
	// would misrepresent the workload. The same order is used for
	// every store.
	perm := rand.New(rand.NewSource(1)).Perm(n)
	start := time.Now()
	for _, i := range perm {
		if err := store.set(benchKey(0, i), benchValue); err != nil {
			return 0, 0, err
		}
	}
	getReads := store.readProbe()
	for _, i := range perm {
		if err := store.get(benchKey(0, i)); err != nil {
			return 0, 0, err
		}
	}
	reads := float64(getReads()) / float64(n)
	for _, i := range perm {
		if err := store.del(benchKey(0, i)); err != nil {
			return 0, 0, err
		}
	}
	return time.Since(start) / time.Duration(3*n), reads, nil
}
