package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"zht/internal/core"
	"zht/internal/loadgen"
	"zht/internal/memcached"
	"zht/internal/metrics"
	"zht/internal/tenant"
	"zht/internal/transport"
	"zht/internal/wire"
)

// Deployment shape shared by every workload: the smallest one in which
// routing chooses between owners, with the paper's default partition count.
const (
	numInstances  = 2
	numPartitions = 1024
	// cacheTenant namespaces the gateway's traffic; its quota is set far
	// above anything two lockstep connections can offer, so the token
	// bucket runs on every request and never sheds.
	cacheTenant = "cache"
	cacheRate   = 1e9
	// cacheTTL is the exptime of every gateway set: long enough that no
	// pair expires inside a run, so the writers' models stay exact.
	cacheTTL = time.Hour
)

// workload is one row of the benchmark's table. Everything that differs
// between workloads is a field here; the driver has no other per-workload
// branches.
type workload struct {
	name string
	// why is copied into BENCHMARK.json.
	why string
	// inproc selects transport.Registry instead of loopback TCP.
	inproc bool
	// opDeadline is core.Config.OpDeadline. Over the in-process transport
	// a deadline costs a goroutine and a channel per call, which would
	// bury the lock ladder the in-process workload exists to measure, so
	// that row disables it.
	opDeadline time.Duration
	replicas   int
	// durable puts every partition on a WAL in a fresh directory under
	// -out, durability async (the store's default flush policy), and adds
	// a close/re-bootstrap/re-verify step after the measured window.
	durable bool
	zipf    bool
	mix     loadgen.Mix
	// batch > 0 issues Client.Batch calls of that many sub-ops. Each
	// batch is all lookups or all writes (in the mix's proportion), so
	// read and write latency stay separate metrics.
	batch int
	// readLevel, when set, is passed to LookupWith.
	readLevel wire.Consistency
	// gateway drives the deployment through a memcached.Gateway with a
	// tenant admission hook: get for lookup, set (with exptime) for insert.
	gateway bool
}

var workloads = []workload{
	{
		name: "tcp-lockstep-read",
		why:  "Loopback TCP, r=0, in memory, uniform keys, 95% lookup / 5% insert, one op per round trip: almost all transport, so transport work must show here and store or codec work must not.",
		mix:  loadgen.Mix{Lookup: 95, Insert: 5},
	},
	{
		name:  "tcp-batch64-mixed",
		why:   "Same deployment through Client.Batch of 64, 50% lookup / 40% insert / 10% remove: one envelope per instance carries 32 sub-ops, so the batch codec, the core batch path and NoVoHT weigh most here.",
		mix:   loadgen.Mix{Lookup: 50, Insert: 40, Remove: 10},
		batch: 64,
	},
	{
		name:       "inproc-parallel-zipf",
		why:        "In-process transport, zipf 1.1, 45% lookup / 45% insert / 10% append from every core: no sockets, so client routing, the Instance.Handle lock ladder and shard locks under hot keys remain.",
		inproc:     true,
		opDeadline: -1,
		zipf:       true,
		mix:        loadgen.Mix{Lookup: 45, Insert: 45, Append: 10},
	},
	{
		name:      "tcp-r1-durable-write",
		why:       "Loopback TCP, one replica, QUORUM writes, async WAL, 70% insert / 10% remove / 10% append / 10% QUORUM lookup: WAL, digest upkeep, the synchronous replica leg and the quorum read fan-out.",
		replicas:  1,
		durable:   true,
		mix:       loadgen.Mix{Insert: 70, Remove: 10, Append: 10, Lookup: 10},
		readLevel: wire.ConsistencyQuorum,
	},
	{
		name:    "memcached-zipf-ttl",
		why:     "memcached text gateway with tenant admission in front of the first deployment, zipf 1.1, 90% get / 10% set with exptime: adds parser, TTL envelope, admission and a second socket hop.",
		zipf:    true,
		mix:     loadgen.Mix{Lookup: 90, Insert: 10},
		gateway: true,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func (wl *workload) dist(keys int) loadgen.KeyDist {
	if wl.zipf {
		return loadgen.Zipf{Keys: keys, S: 1.1}
	}
	return loadgen.Uniform{Keys: keys}
}

// readFraction is the share of calls that are reads.
func (wl *workload) readFraction() float64 {
	m := wl.mix
	return m.Lookup / (m.Lookup + m.Insert + m.Remove + m.Append)
}

// storedKey and storedValue give the form in which the deployment holds a
// benchmark pair: the gateway namespaces keys into its tenant and wraps
// values in a TTL envelope. Preload and verification talk to core.Client
// directly and so must use the stored form.
func (wl *workload) storedKey(name string) string {
	if wl.gateway {
		return tenant.Prefix(cacheTenant, name)
	}
	return name
}

func (wl *workload) storedValue(rec []byte, expiry time.Time) []byte {
	if wl.gateway {
		return tenant.Wrap(rec, 0, expiry)
	}
	return rec
}

func (wl *workload) userValue(stored []byte) []byte {
	if wl.gateway {
		v, _, _, _ := tenant.Unwrap(stored)
		return v
	}
	return stored
}

// deployment is one booted system under test plus the client side of it.
type deployment struct {
	wl      *workload
	d       *core.Deployment
	client  *core.Client
	gateway *memcached.Gateway
	// gatewayAddr is where sessions dial the gateway.
	gatewayAddr string
	// reg is the metrics registry of a traced deployment, else nil.
	reg *metrics.Registry
	// closeGateway stops the gateway and waits for its accept loop;
	// closers stop the listeners and callers.
	closeGateway func() error
	closers      []func() error
}

type nopListener struct{ addr string }

func (l nopListener) Addr() string { return l.addr }
func (l nopListener) Close() error { return nil }

// boot starts the workload's deployment. With a tracer, every public seam
// is wrapped and a metrics registry is installed; without one the system
// runs exactly as a user would configure it. dataDir is used only by
// durable workloads and must exist.
func boot(wl *workload, tr *tracer, dataDir string) (dep *deployment, err error) {
	dep = &deployment{wl: wl}
	defer func() {
		if err != nil {
			dep.close()
		}
	}()
	if tr != nil {
		dep.reg = metrics.NewRegistry()
	}
	cfg := core.Config{
		NumPartitions: numPartitions,
		Replicas:      wl.replicas,
		OpDeadline:    wl.opDeadline,
		Metrics:       dep.reg,
	}
	if wl.durable {
		cfg.DataDir = dataDir
	}
	if wl.gateway {
		tenants := tenant.NewRegistry()
		if err := tenants.Register(tenant.Tenant{Name: cacheTenant, Rate: cacheRate, Burst: cacheRate}); err != nil {
			return dep, err
		}
		cfg.Admission = tr.admission(tenant.NewAdmission(tenants, tenant.AdmissionOptions{Metrics: dep.reg}))
	}

	// The client and the instances' replica legs get separate callers,
	// as separate processes would have.
	var clientCaller, legCaller transport.Caller
	var listen core.ListenFunc
	eps := make([]core.Endpoint, numInstances)
	if wl.inproc {
		reg := transport.NewRegistry()
		if dep.reg != nil {
			reg.SetMetrics(dep.reg)
		}
		clientCaller, legCaller = reg.NewClient(), reg.NewClient()
		eps = core.InprocEndpoints(numInstances)
		listen = func(addr string, h transport.Handler) (transport.Listener, error) {
			return reg.Listen(addr, tr.handler(addr, h), transport.WithServerMetrics(dep.reg))
		}
	} else {
		clientCaller = transport.NewTCPClient(transport.TCPClientOptions{ConnCache: true, Metrics: dep.reg})
		legCaller = transport.NewTCPClient(transport.TCPClientOptions{ConnCache: true, Metrics: dep.reg})
		// Bind first so the membership table carries the real ports,
		// then let Bootstrap install each instance behind its switch.
		switches := make(map[string]*core.HandlerSwitch, numInstances)
		for i := range eps {
			hs := &core.HandlerSwitch{}
			ln, err := transport.ListenTCP("127.0.0.1:0", hs.Handle, transport.EventDriven, transport.WithServerMetrics(dep.reg))
			if err != nil {
				return dep, err
			}
			dep.closers = append(dep.closers, ln.Close)
			eps[i] = core.Endpoint{Addr: ln.Addr(), Node: fmt.Sprintf("node-%d", i)}
			switches[ln.Addr()] = hs
		}
		listen = func(addr string, h transport.Handler) (transport.Listener, error) {
			switches[addr].Set(tr.handler(addr, h))
			return nopListener{addr}, nil
		}
	}
	dep.closers = append(dep.closers, clientCaller.Close, legCaller.Close)

	dep.d, err = core.Bootstrap(cfg, eps, listen, tr.caller(legCaller, spanLegCall))
	if err != nil {
		return dep, err
	}
	dep.client, err = core.NewClient(cfg, dep.d.Instance(0).Table(), tr.caller(clientCaller, spanCallerCall))
	if err != nil {
		return dep, err
	}
	if wl.gateway {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return dep, err
		}
		dep.gateway = memcached.New(tr.store(dep.client), memcached.Options{Tenant: cacheTenant, Metrics: dep.reg})
		served := make(chan struct{})
		go func() {
			defer close(served)
			_ = dep.gateway.Serve(tr.listener(ln)) // returns net.ErrClosed on close
		}()
		dep.closeGateway = func() error {
			err := dep.gateway.Close()
			<-served
			return err
		}
		dep.gatewayAddr = ln.Addr().String()
	}
	return dep, nil
}

// close stops the gateway, the deployment (which drains and syncs every
// store), the listeners and the callers, in that order.
func (dep *deployment) close() error {
	var errs []error
	if dep.closeGateway != nil {
		errs = append(errs, dep.closeGateway())
	}
	if dep.d != nil {
		dep.d.Drain()
		errs = append(errs, dep.d.Close())
	}
	for _, c := range dep.closers {
		errs = append(errs, c())
	}
	dep.closers, dep.d, dep.closeGateway = nil, nil, nil
	return errors.Join(errs...)
}

// session is one worker's handle on the system: a view of the shared
// core.Client, or its own gateway connection. Absence is core.ErrNotFound.
type session interface {
	lookup(key string) ([]byte, error)
	insert(key string, val []byte) error
	remove(key string) error
	append(key string, val []byte) error
	batch(ops []core.BatchOp) ([]core.BatchResult, error)
	close() error
}

func (dep *deployment) newSession() (session, error) {
	if dep.gateway != nil {
		return dialGateway(dep.gatewayAddr)
	}
	return coreSession{c: dep.client, readLevel: dep.wl.readLevel}, nil
}

type coreSession struct {
	c         *core.Client
	readLevel wire.Consistency
}

func (s coreSession) lookup(key string) ([]byte, error) {
	if s.readLevel != wire.ConsistencyDefault {
		return s.c.LookupWith(key, s.readLevel)
	}
	return s.c.Lookup(key)
}

func (s coreSession) insert(key string, val []byte) error { return s.c.Insert(key, val) }
func (s coreSession) remove(key string) error             { return s.c.Remove(key) }
func (s coreSession) append(key string, val []byte) error { return s.c.Append(key, val) }
func (s coreSession) close() error                        { return nil }

func (s coreSession) batch(ops []core.BatchOp) ([]core.BatchResult, error) { return s.c.Batch(ops) }

// newDataDir makes a fresh WAL directory under out.
func newDataDir(out, workload string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(out, "data-"+workload+"-")
}
