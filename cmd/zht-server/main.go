// Command zht-server runs one ZHT instance of a static deployment.
//
// Every server in the deployment is started with the SAME -peers list
// (the batch scheduler's node list in the paper's static bootstrap);
// each picks its own entry with -index. Example, two servers on one
// machine:
//
//	zht-server -peers 127.0.0.1:5500,127.0.0.1:5501 -index 0 &
//	zht-server -peers 127.0.0.1:5500,127.0.0.1:5501 -index 1 &
//	zht-client -seed 127.0.0.1:5500 insert /file meta
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"zht/internal/core"
	"zht/internal/memcached"
	"zht/internal/metrics"
	"zht/internal/ring"
	"zht/internal/storage"
	"zht/internal/tenant"
	"zht/internal/transport"
	"zht/internal/wire"
)

func main() {
	var (
		peers      = flag.String("peers", "", "comma-separated addresses of ALL instances (bootstrap mode)")
		index      = flag.Int("index", 0, "this server's position in -peers")
		joinSeed   = flag.String("join", "", "join a running deployment via this seed address (dynamic membership)")
		joinAddr   = flag.String("addr", "", "this server's address when using -join")
		partitions = flag.Int("partitions", 1024, "fixed partition count n (deployment-wide)")
		replicas   = flag.Int("replicas", 2, "replicas per partition")
		dataDir    = flag.String("data", "", "directory for the instance's NoVoHT log, <instance ID>.log ('' = memory only)")
		proto      = flag.String("proto", "tcp", "transport: tcp or udp")
		hashName   = flag.String("hash", "", "ring hash function (default lookup3)")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
		durability = flag.String("durability", "async", "WAL acknowledgement mode: none, async, group, or sync")
		antiEnt    = flag.Duration("anti-entropy", 0, "anti-entropy period: diff partition digests against each partition's authority and pull divergent ranges this often (0 = off)")
		handoffCap = flag.Int("handoff-cap", 0, "entries a replica leg queue keeps once sends to its destination fail (0 = default 1024, negative disables hinted handoff)")
		writeLevel = flag.String("write-level", "", "default write consistency level when the request does not name one: one, quorum, all (empty = quorum); reads are client-coordinated, so their default lives in the client")
		mcAddr     = flag.String("memcached-addr", "", "serve the memcached text protocol on this address (front door for stock cache clients)")
		mcTenant   = flag.String("memcached-tenant", "cache", "tenant namespace memcached traffic is scoped to ('' = unscoped keyspace)")
		quotas     = flag.String("tenant-quotas", "", "per-tenant admission quotas, comma-separated name:rate[:burst[:weight]] entries (e.g. batch:500:100:1,interactive:5000:500:4)")
		pressure   = flag.Int("tenant-pressure", 0, "total admitted in-flight requests at which weighted tenant shares engage (0 = auto: 256 when any -tenant-quotas entry sets a weight, else off; negative = weights off)")
	)
	flag.Parse()
	dur, err := storage.ParseDurability(*durability)
	if err != nil {
		log.Fatal(err)
	}
	wl, err := wire.ParseConsistency(*writeLevel)
	if err != nil {
		log.Fatalf("-write-level: %v", err)
	}
	var reg *metrics.Registry
	if *debugAddr != "" {
		reg = metrics.NewRegistry()
		dln, stop, err := metrics.ServeDebug(*debugAddr, reg)
		if err != nil {
			log.Fatalf("debug endpoint: %v", err)
		}
		defer stop()
		log.Printf("debug endpoint on http://%s/metrics", dln.Addr())
	}
	adm, err := parseQuotas(*quotas, *pressure, reg)
	if err != nil {
		log.Fatalf("-tenant-quotas: %v", err)
	}
	cfg := core.Config{
		NumPartitions: *partitions,
		Replicas:      *replicas,
		DataDir:       *dataDir,
		Durability:    dur,
		HashName:      *hashName,
		AntiEntropy:   *antiEnt,
		HandoffCap:    *handoffCap,
		WriteLevel:    wl,
		Admission:     adm,
		Metrics:       reg,
	}
	if *joinSeed != "" {
		if *joinAddr == "" {
			log.Fatal("-join requires -addr")
		}
		runJoin(cfg, *joinSeed, *joinAddr, *proto, *mcAddr, *mcTenant)
		return
	}
	addrs := strings.Split(*peers, ",")
	if *peers == "" || *index < 0 || *index >= len(addrs) {
		flag.Usage()
		os.Exit(2)
	}
	members := make([]ring.Instance, len(addrs))
	for i, a := range addrs {
		members[i] = ring.Instance{
			ID:   ring.InstanceID(fmt.Sprintf("zht-%04d", i)),
			Addr: strings.TrimSpace(a),
			Node: strings.TrimSpace(a),
		}
	}
	table, err := ring.New(*partitions, members)
	if err != nil {
		log.Fatalf("membership: %v", err)
	}
	var caller transport.Caller
	if *proto == "udp" {
		caller = transport.NewUDPClient(transport.UDPClientOptions{Metrics: reg})
	} else {
		caller = transport.NewTCPClient(transport.TCPClientOptions{ConnCache: true, Metrics: reg})
	}
	inst, err := core.NewInstance(cfg, members[*index], table, caller)
	if err != nil {
		log.Fatalf("instance: %v", err)
	}
	var ln transport.Listener
	if *proto == "udp" {
		ln, err = transport.ListenUDP(members[*index].Addr, inst.Handle, transport.WithServerMetrics(reg))
	} else {
		ln, err = transport.ListenTCP(members[*index].Addr, inst.Handle, transport.EventDriven, transport.WithServerMetrics(reg))
	}
	if err != nil {
		log.Fatalf("listen %s: %v", members[*index].Addr, err)
	}
	log.Printf("zht-server %s serving %d partitions over %s (epoch %d)",
		members[*index].ID, len(table.PartitionsOf(*index)), *proto, inst.Epoch())
	stopGW, err := startMemcached(*mcAddr, *mcTenant, inst, caller, reg)
	if err != nil {
		log.Fatalf("memcached front door: %v", err)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
	stopGW()
	ln.Close()
	inst.Drain()
	if err := inst.Close(); err != nil {
		log.Fatalf("close: %v", err)
	}
}

// defaultTenantPressure is the auto total-inflight threshold at which
// weighted shares engage when -tenant-quotas declares weights but
// -tenant-pressure is unset. Weights are meaningless without a
// pressure threshold (they would silently do nothing), so declaring
// one turns the threshold on.
const defaultTenantPressure = 256

// parseQuotas builds the tenancy admission hook from the
// -tenant-quotas flag: comma-separated name:rate[:burst[:weight]]
// entries. Empty spec means no admission control. pressure is the
// -tenant-pressure value: 0 = auto (defaultTenantPressure when any
// entry sets a weight), negative = weighted shedding off.
func parseQuotas(spec string, pressure int, reg *metrics.Registry) (core.AdmissionHook, error) {
	if spec == "" {
		return nil, nil
	}
	treg := tenant.NewRegistry()
	hasWeight := false
	for _, entry := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		if len(parts) < 2 || len(parts) > 4 {
			return nil, fmt.Errorf("bad entry %q, want name:rate[:burst[:weight]]", entry)
		}
		t := tenant.Tenant{Name: parts[0]}
		var err error
		if t.Rate, err = strconv.ParseFloat(parts[1], 64); err != nil {
			return nil, fmt.Errorf("bad rate in %q: %v", entry, err)
		}
		if len(parts) > 2 {
			if t.Burst, err = strconv.ParseFloat(parts[2], 64); err != nil {
				return nil, fmt.Errorf("bad burst in %q: %v", entry, err)
			}
		}
		if len(parts) > 3 {
			if t.Weight, err = strconv.Atoi(parts[3]); err != nil {
				return nil, fmt.Errorf("bad weight in %q: %v", entry, err)
			}
			hasWeight = true
		}
		if err := treg.Register(t); err != nil {
			return nil, err
		}
	}
	switch {
	case pressure == 0 && hasWeight:
		pressure = defaultTenantPressure
	case pressure < 0:
		if hasWeight {
			log.Printf("-tenant-quotas declares weights but -tenant-pressure is negative: weighted shedding is off")
		}
		pressure = 0
	}
	return tenant.NewAdmission(treg, tenant.AdmissionOptions{PressureInflight: pressure, Metrics: reg}), nil
}

// startMemcached boots the memcached front door over a client bound
// to the local instance's membership table. The returned stop
// function closes the listener and drains connections; it is a no-op
// when the flag is unset.
func startMemcached(addr, tenantName string, inst *core.Instance, caller transport.Caller, reg *metrics.Registry) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	cl, err := core.NewLocalClient(inst, caller)
	if err != nil {
		return nil, err
	}
	gw := memcached.New(cl, memcached.Options{Tenant: tenantName, Metrics: reg})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		if err := gw.Serve(ln); err != nil && !errors.Is(err, net.ErrClosed) {
			log.Printf("memcached front door: %v", err)
		}
	}()
	log.Printf("memcached front door on %s (tenant %q)", ln.Addr(), tenantName)
	return func() { gw.Close() }, nil
}

// runJoin performs a dynamic join: bind the address first (peers may
// contact the newcomer the moment the membership delta lands), then
// run the join protocol — fetch table, migrate partitions, commit and
// announce.
func runJoin(cfg core.Config, seed, addr, proto, mcAddr, mcTenant string) {
	var caller transport.Caller
	if proto == "udp" {
		caller = transport.NewUDPClient(transport.UDPClientOptions{Metrics: cfg.Metrics})
	} else {
		caller = transport.NewTCPClient(transport.TCPClientOptions{ConnCache: true, Metrics: cfg.Metrics})
	}
	var hs core.HandlerSwitch
	var ln transport.Listener
	var err error
	if proto == "udp" {
		ln, err = transport.ListenUDP(addr, hs.Handle, transport.WithServerMetrics(cfg.Metrics))
	} else {
		ln, err = transport.ListenTCP(addr, hs.Handle, transport.EventDriven, transport.WithServerMetrics(cfg.Metrics))
	}
	if err != nil {
		log.Fatalf("listen %s: %v", addr, err)
	}
	newcomer := ring.Instance{
		ID:   ring.InstanceID("zht-join-" + addr),
		Addr: ln.Addr(),
		Node: addr,
	}
	inst, err := core.Join(cfg, newcomer, seed, caller, func(i *core.Instance) { hs.Set(i.Handle) })
	if err != nil {
		ln.Close()
		log.Fatalf("join via %s: %v", seed, err)
	}
	t := inst.Table()
	log.Printf("joined as %s: epoch %d, serving %d partitions",
		inst.ID(), t.Epoch, len(t.PartitionsOf(t.IndexOf(inst.ID()))))
	stopGW, err := startMemcached(mcAddr, mcTenant, inst, caller, cfg.Metrics)
	if err != nil {
		log.Fatalf("memcached front door: %v", err)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("departing")
	stopGW()
	if err := core.Depart(inst); err != nil {
		log.Printf("planned departure failed: %v (shutting down anyway)", err)
	}
	ln.Close()
	inst.Drain()
	inst.Close()
}
