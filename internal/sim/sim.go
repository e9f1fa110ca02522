// Package sim models ZHT deployments at Blue Gene/P scales — the role
// the ALCF Intrepid machine and the PeerSim-based simulator played in
// the paper's evaluation (Figures 5, 7, 9, 11, 13, 14).
//
// Two engines share one parameter set:
//
//   - a discrete-event simulator (DiscreteEvent) that walks every
//     request through client, NIC, torus network, and server queues —
//     usable up to tens of thousands of instances;
//   - an analytic fixed-point model (Analytic) of the same system —
//     usable to a million nodes, where the paper's own evaluation
//     also switched to simulation.
//
// The engines are cross-validated in tests: at small scale the
// analytic model must agree with the discrete-event results.
//
// The physical picture follows §IV: nodes sit on a 3D torus (one rack
// = 1024 nodes); messages pay a per-hop cost plus a shared-NIC
// serialization cost; each node runs one or more single-threaded
// event-driven ZHT instances, each paired 1:1 with a closed-loop
// client (the paper's all-to-all workload). Throughput is then
// #instances / latency, which is exactly how the paper's 7.4M ops/s
// at 8K nodes relates to its 1.1 ms latency.
package sim

import (
	"errors"
	"math"

	"zht/internal/storage"
)

// Params describes one simulated deployment.
type Params struct {
	// Nodes is the number of physical nodes.
	Nodes int
	// InstancesPerNode (and clients per node); the paper sweeps 1-8.
	InstancesPerNode int
	// Replicas per partition; primary+secondary legs are synchronous
	// (adding a round trip leg), the rest asynchronous (adding only
	// load). Matches §IV.F.
	Replicas int
	// SyncReplication makes every replica leg synchronous (the
	// ablation the paper estimates would cost 100%/200% overhead).
	SyncReplication bool

	// ServerTime is the per-op CPU time on the serving instance
	// (hash, store access, per-op bookkeeping) — paid once per
	// sub-operation in a batch.
	ServerTime float64 // seconds
	// ServerMsgTime is the per-MESSAGE server cost (socket read,
	// framing, envelope decode, dispatch) — paid once per message
	// regardless of how many ops it carries. Batching amortizes this
	// term across BatchSize ops; at BatchSize 1 the per-op server cost
	// is ServerTime + ServerMsgTime.
	ServerMsgTime float64
	// ClientTime is the per-op client-side processing time
	// (serialization, result handling) — per sub-operation.
	ClientTime float64
	// ClientMsgTime is the per-message client cost (framing, syscall,
	// wakeup), amortized by batching like ServerMsgTime.
	ClientMsgTime float64
	// BatchSize is the number of operations per message (the client's
	// -batch setting). 0 or 1 models the unbatched lockstep protocol.
	BatchSize int
	// NICTime is the per-message serialization cost at a node's
	// shared network interface (paid by every message entering or
	// leaving the node); this is what makes many instances per node
	// raise latency (Figure 13).
	NICTime float64
	// HopTime is per-torus-hop propagation+switching.
	HopTime float64
	// RackSize is nodes per rack (Blue Gene/P: 1024); traffic
	// crossing racks pays RackHopTime per rack-network hop.
	RackSize    int
	RackHopTime float64
	// RackLinkTime is the per-message transmission time on an
	// inter-rack link bundle; with all-to-all traffic the bundles
	// congest as scale grows (bisection bandwidth grows only as
	// N^(2/3)), which is what drags efficiency to ~8% at 1M nodes
	// (Figure 11).
	RackLinkTime float64

	// RepairRate is the per-instance anti-entropy message rate: digest
	// round trips per second each instance issues against partition
	// authorities (an instance replicating k partitions with period T
	// issues ≈ k/T, plus pulls when divergence is found). Repair is
	// background traffic — it never extends the acknowledged op path,
	// but it occupies the server, NIC, and rack-link queues both at
	// the issuing replica and at the serving authority, which is the
	// throughput overhead the root BenchmarkRepairSweep measures. 0 (the
	// default) disables the term, leaving the calibrated anchor
	// points untouched.
	RepairRate float64

	// FsyncTime is the cost of one fsync on the partition store's
	// write-ahead log. How often it is paid depends on Durability:
	// sync mode fsyncs every operation (B fsyncs per message), group
	// mode fsyncs once per commit batch — the model assumes the
	// group-commit batch coalesces to the message batch, amortizing
	// one FsyncTime across B ops — and none/async modes never fsync.
	FsyncTime float64
	// Durability is the storage acknowledgement mode the servers run
	// with (storage.Durability semantics: the zero value is async).
	Durability storage.Durability
}

// DefaultParams returns parameters calibrated so that the 2-node
// latency is ≈0.6 ms and the 8K-node, 1-instance latency is ≈1.1 ms —
// the paper's anchor points (§IV.E: "100% efficiency implies a
// latency of about 0.6ms ... 51% efficiency implies about 1.1ms").
//
// The per-op/per-message split preserves those anchors: at BatchSize 1
// the effective costs are ServerTime+ServerMsgTime = 180 µs and
// ClientTime+ClientMsgTime = 120 µs, identical to the pre-split
// calibration. The split itself (how much of each budget is framing
// and dispatch vs real per-op work) is what batching amortizes.
func DefaultParams(nodes, instancesPerNode int) Params {
	return Params{
		Nodes:            nodes,
		InstancesPerNode: instancesPerNode,
		ServerTime:       120e-6,
		ServerMsgTime:    60e-6,
		ClientTime:       70e-6,
		ClientMsgTime:    50e-6,
		NICTime:          60e-6,
		HopTime:          9e-6,
		RackSize:         1024,
		RackHopTime:      55e-6,
		RackLinkTime:     0.5e-6,
		FsyncTime:        100e-6,
	}
}

// batchSize returns the effective ops-per-message B (≥ 1).
func batchSize(p Params) int {
	if p.BatchSize > 1 {
		return p.BatchSize
	}
	return 1
}

// msgTimes returns per-MESSAGE client and server service times: B
// per-op costs plus one per-message overhead. Dividing by B gives the
// amortized per-op cost, which is what batching improves.
func msgTimes(p Params) (cliMsg, srvMsg float64) {
	b := float64(batchSize(p))
	srvMsg = b*p.ServerTime + p.ServerMsgTime
	switch p.Durability {
	case storage.DurabilitySync:
		srvMsg += b * p.FsyncTime // one fsync per op
	case storage.DurabilityGroup:
		srvMsg += p.FsyncTime // one fsync per commit batch
	}
	return b*p.ClientTime + p.ClientMsgTime, srvMsg
}

// Result reports one simulated configuration.
type Result struct {
	// Latency is the mean request latency in seconds.
	Latency float64
	// Throughput is aggregate operations/second.
	Throughput float64
	// AvgHops is the mean one-way torus hop count.
	AvgHops float64
	// NICUtilization is the mean utilization of a node's NIC queue.
	NICUtilization float64
}

// Efficiency computes the paper's efficiency metric: measured
// throughput over ideal throughput, where ideal extrapolates the
// best 2-node latency (§IV.E).
func Efficiency(r Result, p Params, twoNodeLatency float64) float64 {
	ideal := float64(p.Nodes*p.InstancesPerNode) / twoNodeLatency
	return r.Throughput / ideal
}

// torusDims factors n into the most cubic a×b×c shape.
func torusDims(n int) [3]int {
	best := [3]int{1, 1, n}
	bestScore := math.MaxFloat64
	for a := 1; a*a*a <= n; a++ {
		if n%a != 0 {
			continue
		}
		m := n / a
		for b := a; b*b <= m; b++ {
			if m%b != 0 {
				continue
			}
			c := m / b
			score := float64(a + b + c) // smaller sum = more cubic
			if score < bestScore {
				bestScore = score
				best = [3]int{a, b, c}
			}
		}
	}
	return best
}

// avgTorusHops returns the mean pairwise hop distance on a 3D torus
// of n nodes (uniform random source/destination).
func avgTorusHops(n int) float64 {
	if n <= 1 {
		return 0
	}
	d := torusDims(n)
	h := 0.0
	for _, dim := range d {
		h += avgRingDist(dim)
	}
	return h
}

// avgRingDist is the mean wraparound distance on a ring of k nodes.
func avgRingDist(k int) float64 {
	if k <= 1 {
		return 0
	}
	sum := 0
	for i := 0; i < k; i++ {
		dd := i
		if k-i < dd {
			dd = k - i
		}
		sum += dd
	}
	return float64(sum) / float64(k)
}

// networkTopo summarizes the topology-derived constants for a
// configuration: intra-rack propagation, inter-rack traffic fraction,
// and mean rack-network hop count.
type networkTopo struct {
	intraProp float64 // fixed intra-rack propagation, one way
	interFrac float64 // fraction of traffic crossing racks
	rackHops  float64 // mean rack-torus hops for crossing traffic
	hops      float64 // mean total hops, for reporting
}

func topo(p Params) networkTopo {
	sameNode := 1.0 / float64(p.Nodes)
	t := networkTopo{}
	t.hops = avgTorusHops(min(p.Nodes, p.RackSize))
	t.intraProp = t.hops * p.HopTime * (1 - sameNode)
	if p.Nodes > p.RackSize {
		racks := (p.Nodes + p.RackSize - 1) / p.RackSize
		t.interFrac = 1 - 1/float64(racks)
		t.rackHops = avgTorusHops(racks)
		t.hops += t.interFrac * t.rackHops
	}
	return t
}

// networkDelay is the uncongested one-way propagation delay between
// two uniformly random instances (used by the discrete-event engine
// for its hop report).
func networkDelay(p Params) (delay, hops float64) {
	t := topo(p)
	return t.intraProp + t.interFrac*t.rackHops*p.RackHopTime, t.hops
}

// replicationLegs splits the configured replica count into
// synchronous and asynchronous legs per §III.H/§IV.F: replication is
// asynchronous by default ("the asynchronous nature of the
// replication adds relatively little overhead"); SyncReplication
// models the estimated 100%-per-replica synchronous alternative.
func replicationLegs(p Params) (syncLegs, asyncLegs int) {
	if p.Replicas <= 0 {
		return 0, 0
	}
	if p.SyncReplication {
		return p.Replicas, 0
	}
	return 0, p.Replicas
}

// Analytic solves the closed-loop fixed point: every instance has one
// client with zero think time, so per-instance MESSAGE rate λ = 1/L,
// and L includes NIC, server, and rack-link queueing delays that
// themselves depend on λ. A message carries BatchSize ops, so per-op
// throughput is B·λ while NIC/propagation costs stay per message —
// that asymmetry is the batching-amortization curve.
func Analytic(p Params) (Result, error) {
	if err := validate(p); err != nil {
		return Result{}, err
	}
	t := topo(p)
	b := float64(batchSize(p))
	cliMsg, srvMsg := msgTimes(p)
	syncLegs, asyncLegs := replicationLegs(p)
	legs := float64(syncLegs + asyncLegs)
	// NIC passes per message at each involved node: request out,
	// request in, response out, response in = 4 total over 2 nodes →
	// 2 per node per message; each replication leg adds its own
	// request+ack (replication is batched too — one coalesced
	// envelope per replica per incoming batch).
	passesPerNode := 2.0 * (1 + legs)
	i := float64(p.InstancesPerNode)

	// Repair traffic: each of an instance's RepairRate digest round
	// trips costs 2 NIC passes at both ends (request out/in, response
	// out/in), a per-message server cost at the authority answering
	// it, and a per-message client cost at the replica issuing it. In
	// the uniform all-to-all picture every instance plays both roles
	// at the same rate.
	rr := p.RepairRate
	repairPasses := 4 * rr // per instance per second, both roles
	repairSrv := rr * (p.ServerMsgTime + p.ClientMsgTime)

	cap95 := func(x float64) float64 { return math.Min(0.95, x) }
	lat := cliMsg + srvMsg + 2*t.intraProp + 4*p.NICTime
	var rhoNIC, rhoSrv, rhoRack float64
	for iter := 0; iter < 500; iter++ {
		lambda := 1 / lat // messages/s per instance
		// NIC queue: i instances per node, passesPerNode messages
		// per batch round trip each, plus repair background passes.
		rhoNIC = cap95(i * (lambda*passesPerNode + repairPasses) * p.NICTime)
		nicDelay := p.NICTime / (1 - rhoNIC)
		// Server queue: each instance serves its own batches plus
		// replica batches from `legs` peers, each costing B per-op
		// applications plus one envelope decode; repair digest
		// serving and issuing is additional background occupancy.
		rhoSrv = cap95(lambda*(1+legs)*srvMsg + repairSrv)
		srvDelay := srvMsg * (1 + rhoSrv/(1-rhoSrv))
		// Inter-rack links: all-to-all traffic over a bundle count
		// that grows only as the rack torus, so utilization grows
		// with scale.
		rackDelay := 0.0
		if t.interFrac > 0 {
			msgRateNode := i * (lambda*passesPerNode + repairPasses)
			rhoRack = cap95(msgRateNode * float64(p.RackSize) * t.rackHops / 3 * p.RackLinkTime)
			rackDelay = t.interFrac * t.rackHops * p.RackHopTime / (1 - rhoRack)
		}
		prop := t.intraProp + rackDelay
		l := cliMsg + srvDelay + 2*prop + 4*nicDelay
		// Synchronous replica legs nest a full extra round trip.
		l += float64(syncLegs) * (srvDelay + 2*prop + 4*nicDelay)
		// Asynchronous legs do not extend the acknowledged path;
		// their cost enters via rhoNIC/rhoSrv/rhoRack load above.
		if math.Abs(l-lat) < 1e-12 {
			lat = l
			break
		}
		lat = 0.7*lat + 0.3*l // damped iteration
	}
	return Result{
		Latency:        lat,
		Throughput:     float64(p.Nodes*p.InstancesPerNode) * b / lat,
		AvgHops:        t.hops,
		NICUtilization: rhoNIC,
	}, nil
}

func validate(p Params) error {
	if p.Nodes <= 0 || p.InstancesPerNode <= 0 {
		return errors.New("sim: Nodes and InstancesPerNode must be positive")
	}
	if p.RackSize <= 0 {
		return errors.New("sim: RackSize must be positive")
	}
	if p.Replicas < 0 {
		return errors.New("sim: Replicas must be non-negative")
	}
	if p.BatchSize < 0 {
		return errors.New("sim: BatchSize must be non-negative")
	}
	if p.RepairRate < 0 {
		return errors.New("sim: RepairRate must be non-negative")
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// BootstrapModel reproduces Figure 5's components: the batch-system
// partition boot dominates; ZHT's own start (server fork + neighbor
// list generation) stays near-constant because static bootstrap needs
// no global communication (§III.H).
type BootstrapTimes struct {
	PartitionBoot float64 // Blue Gene/P partition boot, seconds
	NeighborList  float64 // membership/neighbor list generation
	ServerStart   float64 // ZHT server start
}

// Total is the full bootstrap latency.
func (b BootstrapTimes) Total() float64 {
	return b.PartitionBoot + b.NeighborList + b.ServerStart
}

// Bootstrap estimates bootstrap times for n nodes; calibrated to the
// paper's "batch job start ≈150 s at 1K nodes, ZHT bootstrap 8 s at
// 1K and 10 s at 8K" (§III.H).
func Bootstrap(n int) BootstrapTimes {
	return BootstrapTimes{
		PartitionBoot: 95 + 13.5*math.Log2(float64(n)/64+1),
		NeighborList:  0.00035 * float64(n),
		ServerStart:   7.1,
	}
}
