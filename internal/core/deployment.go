package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"zht/internal/ring"
	"zht/internal/transport"
	"zht/internal/wire"
)

// Deployment bootstraps and manages a set of ZHT instances over any
// transport. It plays the role of the batch scheduler handing the
// node list to every participant at job start (§III.C static
// bootstrap): every instance begins with the complete membership
// table and no global communication is required.

// ListenFunc binds a handler to an address, returning the running
// listener. The transport packages provide natural implementations.
type ListenFunc func(addr string, h transport.Handler) (transport.Listener, error)

// Endpoint names where one instance should live.
type Endpoint struct {
	Addr string // transport address to bind
	Node string // physical node identifier (for replica placement)
	// Coord is the node's position in the machine's 3D torus.
	// Bootstrap orders the ring by Z-order over these coordinates so
	// ring neighbours — which hold each other's replicas — are also
	// network neighbours (the paper's future-work network-aware
	// topology, §VI). The order is stable: endpoints with equal
	// coordinates (all zero, when none are given) keep their order.
	Coord [3]int
}

// HandlerSwitch lets an address be bound before its instance exists
// (needed by Join: peers may contact the newcomer the moment the
// membership delta lands).
type HandlerSwitch struct {
	mu sync.RWMutex
	h  transport.Handler
}

// Handle dispatches to the installed handler. Before installation it
// answers Busy, not a terminal error: the window between binding the
// address and installing the instance is transient (a join in
// progress), so callers should re-route or retry after a short hint
// rather than fail the operation.
func (hs *HandlerSwitch) Handle(req *wire.Request) *wire.Response {
	hs.mu.RLock()
	h := hs.h
	hs.mu.RUnlock()
	if h == nil {
		r := wire.Reply(wire.StatusBusy, nil)
		r.Err, r.RetryAfter = "core: instance still bootstrapping", uint64(2*time.Millisecond)
		return r
	}
	return h(req)
}

// Set installs the handler.
func (hs *HandlerSwitch) Set(h transport.Handler) {
	hs.mu.Lock()
	hs.h = h
	hs.mu.Unlock()
}

// Deployment is a running group of instances sharing one membership
// table lineage.
type Deployment struct {
	cfg    Config
	listen ListenFunc
	caller transport.Caller

	mu        sync.Mutex
	instances []*Instance
	listeners []transport.Listener
}

// Bootstrap starts one instance per endpoint with a fresh, evenly
// partitioned membership table.
func Bootstrap(cfg Config, eps []Endpoint, listen ListenFunc, caller transport.Caller) (*Deployment, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	// Ring order is Z-order over the endpoints' coordinates (see
	// Endpoint.Coord); ids follow ring order.
	coords := make(map[string][3]int, len(eps))
	members := make([]ring.Instance, len(eps))
	for i, ep := range eps {
		coords[ep.Addr] = ep.Coord
		members[i] = ring.Instance{Addr: ep.Addr, Node: ep.Node}
	}
	ring.SortNetworkAware(members, func(in ring.Instance) [3]int { return coords[in.Addr] })
	for i := range members {
		members[i].ID = ring.InstanceID(fmt.Sprintf("zht-%04d", i))
	}
	table, err := ring.New(cfg.NumPartitions, members)
	if err != nil {
		return nil, err
	}
	d := &Deployment{cfg: cfg, listen: listen, caller: caller}
	insts, err := newInstances(cfg, members, table, caller)
	if err != nil {
		return nil, err
	}
	for i, inst := range insts {
		ln, err := listen(members[i].Addr, inst.Handle)
		if err != nil {
			for _, rest := range insts[i:] {
				rest.Close()
			}
			d.Close()
			return nil, fmt.Errorf("core: bind %s: %w", members[i].Addr, err)
		}
		d.mu.Lock()
		d.instances = append(d.instances, inst)
		d.listeners = append(d.listeners, ln)
		d.mu.Unlock()
	}
	return d, nil
}

// newInstances creates one instance per member, concurrently: a
// durable instance replays its whole log before it returns, and that
// replay is most of a durable deployment's boot. On error it closes
// every instance it created.
func newInstances(cfg Config, members []ring.Instance, table *ring.Table, caller transport.Caller) ([]*Instance, error) {
	insts := make([]*Instance, len(members))
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			insts[i], errs[i] = NewInstance(cfg, m, table, caller)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, inst := range insts {
			if inst != nil {
				inst.Close()
			}
		}
		return nil, err
	}
	return insts, nil
}

// InprocEndpoints builds n endpoints named zht-<i>, one per simulated
// physical node.
func InprocEndpoints(n int) []Endpoint {
	eps := make([]Endpoint, n)
	for i := range eps {
		eps[i] = Endpoint{Addr: fmt.Sprintf("zht-%04d", i), Node: fmt.Sprintf("node-%04d", i)}
	}
	return eps
}

// BootstrapInproc starts n instances on a fresh in-process registry.
// When cfg.Metrics is set, the transport's server- and caller-side
// instruments are wired to it as well.
func BootstrapInproc(cfg Config, n int) (*Deployment, *transport.Registry, error) {
	reg := transport.NewRegistry()
	if cfg.Metrics != nil {
		reg.SetMetrics(cfg.Metrics)
	}
	d, err := Bootstrap(cfg, InprocEndpoints(n), func(addr string, h transport.Handler) (transport.Listener, error) {
		return reg.Listen(addr, h, transport.WithServerMetrics(cfg.Metrics))
	}, reg.NewClient())
	if err != nil {
		return nil, nil, err
	}
	return d, reg, nil
}

// Instances returns the running instances (bootstrap + joined).
func (d *Deployment) Instances() []*Instance {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]*Instance(nil), d.instances...)
}

// Instance returns the i'th instance.
func (d *Deployment) Instance(i int) *Instance {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.instances[i]
}

// Size reports the number of running instances.
func (d *Deployment) Size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.instances)
}

// NewClient builds a client seeded from the first instance's current
// table.
func (d *Deployment) NewClient() (*Client, error) {
	d.mu.Lock()
	if len(d.instances) == 0 {
		d.mu.Unlock()
		return nil, fmt.Errorf("core: empty deployment")
	}
	t := d.instances[0].Table()
	d.mu.Unlock()
	return NewClient(d.cfg, t, d.caller)
}

// NewLocalClient builds a client sharing instance i's membership
// table (the paper's 1:1 client:server deployment, §III.C).
func (d *Deployment) NewLocalClient(i int) (*Client, error) {
	d.mu.Lock()
	if i < 0 || i >= len(d.instances) {
		d.mu.Unlock()
		return nil, fmt.Errorf("core: no instance %d", i)
	}
	in := d.instances[i]
	d.mu.Unlock()
	return NewLocalClient(in, d.caller)
}

// Join adds a new instance at ep, migrating partitions live.
func (d *Deployment) Join(ep Endpoint) (*Instance, error) {
	d.mu.Lock()
	if len(d.instances) == 0 {
		d.mu.Unlock()
		return nil, fmt.Errorf("core: empty deployment")
	}
	seed := d.instances[0].Addr()
	n := len(d.instances)
	d.mu.Unlock()

	var hs HandlerSwitch
	ln, err := d.listen(ep.Addr, hs.Handle)
	if err != nil {
		return nil, err
	}
	newcomer := ring.Instance{
		ID:   ring.InstanceID(fmt.Sprintf("zht-join-%04d-%s", n, ep.Addr)),
		Addr: ep.Addr,
		Node: ep.Node,
	}
	inst, err := Join(d.cfg, newcomer, seed, d.caller, func(i *Instance) { hs.Set(i.Handle) })
	if err != nil {
		ln.Close()
		return nil, err
	}
	d.mu.Lock()
	d.instances = append(d.instances, inst)
	d.listeners = append(d.listeners, ln)
	d.mu.Unlock()
	return inst, nil
}

// Depart performs a planned departure of instance i and stops it.
func (d *Deployment) Depart(i int) error {
	d.mu.Lock()
	if i < 0 || i >= len(d.instances) {
		d.mu.Unlock()
		return fmt.Errorf("core: no instance %d", i)
	}
	inst := d.instances[i]
	ln := d.listeners[i]
	d.mu.Unlock()
	if err := Depart(inst); err != nil {
		return err
	}
	inst.Drain()
	d.mu.Lock()
	for j, x := range d.instances {
		if x == inst {
			d.instances = append(d.instances[:j], d.instances[j+1:]...)
			d.listeners = append(d.listeners[:j], d.listeners[j+1:]...)
			break
		}
	}
	d.mu.Unlock()
	if err := ln.Close(); err != nil {
		return err
	}
	return inst.Close()
}

// Drain waits for asynchronous work on every instance.
func (d *Deployment) Drain() {
	for _, in := range d.Instances() {
		in.Drain()
	}
}

// Close stops all listeners and instances.
func (d *Deployment) Close() error {
	d.mu.Lock()
	lns := d.listeners
	ins := d.instances
	d.listeners = nil
	d.instances = nil
	d.mu.Unlock()
	var firstErr error
	for _, ln := range lns {
		if err := ln.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, in := range ins {
		if err := in.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
