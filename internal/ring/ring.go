// Package ring implements ZHT's ID space and membership table
// (paper §III.A–C and Figure 2).
//
// The 64-bit key namespace is evenly divided into a fixed number of
// contiguous partitions, n, chosen at bootstrap as the maximum number
// of physical nodes the deployment may ever grow to. Partitions are
// assigned to ZHT instances; each physical node runs one or more
// instances. Because n never changes, membership changes (joins,
// departures, failures) are expressed purely as partition reassignments
// in the membership table — stored key/value pairs are never rehashed.
//
// The table is versioned by an epoch counter. Managers send
// incremental updates (Delta values) to the instances whose copies they
// move, and gossip carries them to the rest; clients refresh lazily
// when a server tells them their table is stale (§III.C "Client Side
// State").
package ring

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"sort"
)

// InstanceID is the universally unique id a ZHT instance is assigned
// on the ring at bootstrap.
type InstanceID string

// Instance describes one ZHT instance: a process, identified by its
// transport address, running on some physical node.
type Instance struct {
	ID   InstanceID
	Addr string // transport address (e.g. "host:port" or in-proc name)
	Node string // physical node the instance runs on
}

// Status of an instance in the membership table.
type Status uint8

const (
	// Alive instances serve requests.
	Alive Status = iota
	// Failed instances have been tagged unreachable; their
	// partitions are served by replicas until re-replication
	// completes.
	Failed
	// Departing instances are migrating their partitions away in
	// preparation for a planned departure.
	Departing
)

func (s Status) String() string {
	switch s {
	case Alive:
		return "alive"
	case Failed:
		return "failed"
	case Departing:
		return "departing"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Table is the ZHT membership table: the complete routing state each
// client and server holds locally, enabling zero-hop request routing.
// Methods that read a Table are safe for concurrent use only if no
// goroutine mutates it; mutation happens by building a new epoch via
// Apply or the Join/Fail/Depart helpers, which operate on a copy.
type Table struct {
	// Epoch increases by one with every membership change.
	Epoch uint64
	// NumPartitions is n: fixed for the lifetime of the deployment.
	NumPartitions int
	// Instances in ring order. Ring position is the slice index.
	Instances []Instance
	// Status[i] is the state of Instances[i].
	Status []Status
	// Owner[p] is the index into Instances of the instance serving
	// partition p.
	Owner []int

	// byID indexes Instances by ID. It is built eagerly by New,
	// Apply, Clone, and DecodeTable so that published tables are
	// immutable and safe to share across goroutines; IndexOf never
	// mutates the table.
	byID map[InstanceID]int
}

// buildIndex (re)builds the ID index.
func (t *Table) buildIndex() {
	m := make(map[InstanceID]int, len(t.Instances))
	for i, in := range t.Instances {
		m[in.ID] = i
	}
	t.byID = m
}

// New builds the bootstrap membership table: numPartitions contiguous
// partitions distributed as evenly as possible over the given instances
// in ring order (each instance receives a contiguous run, mirroring the
// paper's "each physical node holds n/k partitions").
func New(numPartitions int, instances []Instance) (*Table, error) {
	if numPartitions <= 0 {
		return nil, errors.New("ring: numPartitions must be positive")
	}
	if len(instances) == 0 {
		return nil, errors.New("ring: at least one instance required")
	}
	if len(instances) > numPartitions {
		return nil, fmt.Errorf("ring: %d instances exceed %d partitions", len(instances), numPartitions)
	}
	seen := make(map[InstanceID]bool, len(instances))
	for _, in := range instances {
		if in.ID == "" {
			return nil, errors.New("ring: instance with empty ID")
		}
		if seen[in.ID] {
			return nil, fmt.Errorf("ring: duplicate instance ID %q", in.ID)
		}
		seen[in.ID] = true
	}
	t := &Table{
		Epoch:         1,
		NumPartitions: numPartitions,
		Instances:     append([]Instance(nil), instances...),
		Status:        make([]Status, len(instances)),
		Owner:         make([]int, numPartitions),
	}
	k := len(instances)
	for p := 0; p < numPartitions; p++ {
		// Contiguous block assignment: instance j owns partitions
		// [j*n/k, (j+1)*n/k).
		t.Owner[p] = p * k / numPartitions
	}
	t.buildIndex()
	return t, nil
}

// Partition maps a 64-bit hash to its partition: the namespace is split
// into NumPartitions contiguous, equal-width ranges.
func (t *Table) Partition(h uint64) int {
	// Multiply-high maps h uniformly onto [0, NumPartitions) while
	// preserving contiguity of hash ranges.
	hi, _ := bits.Mul64(h, uint64(t.NumPartitions))
	return int(hi)
}

// OwnerOf returns the instance currently serving partition p.
func (t *Table) OwnerOf(p int) Instance {
	return t.Instances[t.Owner[p]]
}

// Lookup returns the owning instance for hash h.
func (t *Table) Lookup(h uint64) Instance {
	return t.OwnerOf(t.Partition(h))
}

// IndexOf returns the ring index of the instance with the given ID,
// or -1 if it is not a member. It never mutates the table, so shared
// (published) tables may be read concurrently.
func (t *Table) IndexOf(id InstanceID) int {
	if t.byID != nil {
		if i, ok := t.byID[id]; ok {
			return i
		}
		return -1
	}
	// Hand-constructed table without an index: linear scan.
	for i, in := range t.Instances {
		if in.ID == id {
			return i
		}
	}
	return -1
}

// ReplicasOf returns up to r replica instances for partition p: the
// next alive instances clockwise from the owner that live on distinct
// physical nodes (paper §III.H: replicas go to nodes in close proximity
// of the original hashed location, ordered by UUID/ring position).
func (t *Table) ReplicasOf(p, r int) []Instance {
	owner := t.Owner[p]
	ownerNode := t.Instances[owner].Node
	var out []Instance
	usedNodes := map[string]bool{ownerNode: true}
	for step := 1; step < len(t.Instances) && len(out) < r; step++ {
		i := (owner + step) % len(t.Instances)
		in := t.Instances[i]
		if t.Status[i] != Alive || usedNodes[in.Node] {
			continue
		}
		usedNodes[in.Node] = true
		out = append(out, in)
	}
	return out
}

// PartitionsOf returns the partitions owned by the instance at ring
// index idx, in ascending order.
func (t *Table) PartitionsOf(idx int) []int {
	var ps []int
	for p, o := range t.Owner {
		if o == idx {
			ps = append(ps, p)
		}
	}
	return ps
}

// Load returns the number of partitions owned per instance.
func (t *Table) Load() []int {
	load := make([]int, len(t.Instances))
	for _, o := range t.Owner {
		load[o]++
	}
	return load
}

// MostLoaded returns the ring index of the alive instance owning the
// most partitions (ties broken by lowest index), or -1 if no instance
// is alive. A joining node relieves this instance (paper §III.C
// "Node Joins").
func (t *Table) MostLoaded() int {
	load := t.Load()
	best, bestLoad := -1, -1
	for i, l := range load {
		if t.Status[i] != Alive {
			continue
		}
		if l > bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	nt := &Table{
		Epoch:         t.Epoch,
		NumPartitions: t.NumPartitions,
		Instances:     append([]Instance(nil), t.Instances...),
		Status:        append([]Status(nil), t.Status...),
		Owner:         append([]int(nil), t.Owner...),
	}
	nt.buildIndex()
	return nt
}

// After reports whether t orders after u: a higher epoch or, when two
// managers committed different changes at one epoch, the deterministic
// winner of the tie — more instances first (a join cannot be undone),
// then the greater encoding. Every holder breaks the tie the same way,
// so two tables of one epoch resolve to one wherever they meet.
func (t *Table) After(u *Table) bool {
	if t.Epoch != u.Epoch {
		return t.Epoch > u.Epoch
	}
	if len(t.Instances) != len(u.Instances) {
		return len(t.Instances) > len(u.Instances)
	}
	return bytes.Compare(EncodeTable(t), EncodeTable(u)) > 0
}

// AliveCount reports how many instances are currently alive.
func (t *Table) AliveCount() int {
	n := 0
	for _, s := range t.Status {
		if s == Alive {
			n++
		}
	}
	return n
}

// Validate checks structural invariants: every partition owned by a
// valid instance index, and failed instances owning no partitions once
// failover has completed is NOT required (failover is asynchronous),
// but indices must be in range.
func (t *Table) Validate() error {
	if t.NumPartitions != len(t.Owner) {
		return fmt.Errorf("ring: NumPartitions=%d but len(Owner)=%d", t.NumPartitions, len(t.Owner))
	}
	if len(t.Instances) != len(t.Status) {
		return fmt.Errorf("ring: %d instances but %d statuses", len(t.Instances), len(t.Status))
	}
	for p, o := range t.Owner {
		if o < 0 || o >= len(t.Instances) {
			return fmt.Errorf("ring: partition %d owned by invalid index %d", p, o)
		}
	}
	ids := map[InstanceID]bool{}
	for _, in := range t.Instances {
		if ids[in.ID] {
			return fmt.Errorf("ring: duplicate instance %q", in.ID)
		}
		ids[in.ID] = true
	}
	return nil
}

// SortNetworkAware reorders instances so that ring position correlates
// with network distance (the paper's future-work network-aware
// topology, §VI): instances are sorted by the Z-order (Morton) index of
// their torus coordinates so ring neighbours — which receive replicas —
// are also network neighbours.
func SortNetworkAware(instances []Instance, coord func(Instance) [3]int) {
	sort.SliceStable(instances, func(i, j int) bool {
		return morton3(coord(instances[i])) < morton3(coord(instances[j]))
	})
}

func morton3(c [3]int) uint64 {
	var m uint64
	for b := 0; b < 21; b++ {
		m |= (uint64(c[0])>>b&1)<<(3*b) |
			(uint64(c[1])>>b&1)<<(3*b+1) |
			(uint64(c[2])>>b&1)<<(3*b+2)
	}
	return m
}
