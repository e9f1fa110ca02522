// Package zht is a from-scratch Go implementation of ZHT, the
// light-weight reliable persistent dynamic scalable zero-hop
// distributed hash table for high-end computing (Li et al.,
// IPDPS 2013).
//
// ZHT routes every operation directly to the instance owning the
// key's partition — zero hops — using a complete membership table
// held by every client and server. The table refreshes lazily when
// membership changes. Partitions persist via NoVoHT, a log-structured
// persistent hash table, and replicate to ring neighbours for fault
// tolerance. Four basic operations are provided — Insert, Lookup,
// Remove, and Append (lock-free concurrent modification) — plus Cas
// and a spanning-tree Broadcast extension.
//
// # Quick start
//
//	cfg := zht.Config{NumPartitions: 1024, Replicas: 2}
//	d, _, err := zht.BootstrapInproc(cfg, 4) // 4 in-process instances
//	if err != nil { ... }
//	defer d.Close()
//	c, err := d.NewClient()
//	if err != nil { ... }
//	c.Insert("/dir/file", meta)
//	v, err := c.Lookup("/dir/file")
//
// For a networked deployment, bind instances with zht.ListenTCP (or
// ListenUDP) endpoints via zht.Bootstrap, and create remote clients
// with zht.NewClientFromSeed. See examples/ and cmd/ for complete
// programs.
package zht

import (
	"zht/internal/core"
	"zht/internal/ring"
	"zht/internal/transport"
	"zht/internal/wire"
)

// Config holds deployment-wide ZHT parameters. See core.Config for
// field documentation.
type Config = core.Config

// Client is a ZHT client handle; safe for concurrent use.
type Client = core.Client

// Instance is one running ZHT server.
type Instance = core.Instance

// Deployment manages a group of instances (bootstrap, join, depart).
type Deployment = core.Deployment

// Endpoint names where an instance should live.
type Endpoint = core.Endpoint

// HandlerSwitch allows binding a transport address before its
// instance exists (needed for dynamic joins).
type HandlerSwitch = core.HandlerSwitch

// Table is the ZHT membership table.
type Table = ring.Table

// Consistency selects how many replicas a read or write waits on.
// Set the deployment's write default with Config.WriteLevel, or
// override per operation via the client's *With methods (InsertWith,
// LookupWith, ...); a read defaults to ONE.
type Consistency = wire.Consistency

// Consistency levels. Default resolves to the deployment's configured
// level (QUORUM for writes, ONE for reads).
const (
	ConsistencyDefault = wire.ConsistencyDefault
	ConsistencyOne     = wire.ConsistencyOne
	ConsistencyQuorum  = wire.ConsistencyQuorum
	ConsistencyAll     = wire.ConsistencyAll
)

// Errors returned by client operations.
var (
	ErrNotFound    = core.ErrNotFound
	ErrExists      = core.ErrExists
	ErrCasMismatch = core.ErrCasMismatch
	ErrUnavailable = core.ErrUnavailable
)

// Bootstrap starts one instance per endpoint on the given transport.
func Bootstrap(cfg Config, eps []Endpoint, listen core.ListenFunc, caller transport.Caller) (*Deployment, error) {
	return core.Bootstrap(cfg, eps, listen, caller)
}

// BootstrapInproc starts n instances on a fresh in-process transport —
// the fastest way to run ZHT inside one OS process (tests, examples,
// benchmarks).
func BootstrapInproc(cfg Config, n int) (*Deployment, *transport.Registry, error) {
	return core.BootstrapInproc(cfg, n)
}

// NewClient builds a client from a known membership table.
func NewClient(cfg Config, table *Table, caller transport.Caller) (*Client, error) {
	return core.NewClient(cfg, table, caller)
}

// NewClientFromSeed builds a client by fetching the membership table
// from any live instance.
func NewClientFromSeed(cfg Config, seedAddr string, caller transport.Caller) (*Client, error) {
	return core.NewClientFromSeed(cfg, seedAddr, caller)
}

// NewTCPCaller returns a TCP transport caller with the connection
// cache enabled (the paper's fastest TCP configuration).
func NewTCPCaller() transport.Caller {
	return transport.NewTCPClient(transport.TCPClientOptions{ConnCache: true})
}

// NewUDPCaller returns an acknowledge-based UDP transport caller.
func NewUDPCaller() transport.Caller {
	return transport.NewUDPClient(transport.UDPClientOptions{})
}

// ListenTCP binds a ZHT handler to a TCP address; pass the result of
// instance.Handle (or a HandlerSwitch).
func ListenTCP(addr string, h transport.Handler) (transport.Listener, error) {
	return transport.ListenTCP(addr, h, transport.EventDriven)
}

// ListenUDP binds a ZHT handler to a UDP address.
func ListenUDP(addr string, h transport.Handler) (transport.Listener, error) {
	return transport.ListenUDP(addr, h)
}
