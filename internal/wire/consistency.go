package wire

import "fmt"

// Consistency is the per-request consistency level carried in the
// request envelope. The paper fixes replication at "synchronous first
// replica, asynchronous rest" (§III.J); the level generalizes that
// single point into the Dynamo-style tunable spectrum. For writes it
// names how many copies (primary + replicas) must acknowledge before
// the client's op returns; for reads, how many copies are consulted
// before the newest version wins.
type Consistency uint8

const (
	// ConsistencyDefault defers to the default: the node's configured
	// Config.WriteLevel for writes, One for reads. Zero on the wire, so
	// envelopes from older senders decode as "use the default" and the
	// field costs nothing when unused.
	ConsistencyDefault Consistency = iota
	// ConsistencyOne acks after a single copy: the primary's apply for
	// writes (every replica leg goes async), the first reachable
	// copy's answer for reads.
	ConsistencyOne
	// ConsistencyQuorum requires floor(copies/2)+1 copies, where
	// copies = 1 primary + Config.Replicas. At Replicas ≤ 2 this is
	// the paper's mode: primary plus one synchronous replica leg.
	ConsistencyQuorum
	// ConsistencyAll requires every copy. For writes every replica leg
	// is synchronous.
	ConsistencyAll
	consistencyMax
)

func (c Consistency) String() string {
	switch c {
	case ConsistencyDefault:
		return "default"
	case ConsistencyOne:
		return "one"
	case ConsistencyQuorum:
		return "quorum"
	case ConsistencyAll:
		return "all"
	}
	return fmt.Sprintf("consistency(%d)", uint8(c))
}

// ParseConsistency maps a level name (as accepted by CLI flags and
// config files) to its Consistency value.
func ParseConsistency(s string) (Consistency, error) {
	switch s {
	case "", "default":
		return ConsistencyDefault, nil
	case "one", "ONE", "1":
		return ConsistencyOne, nil
	case "quorum", "QUORUM":
		return ConsistencyQuorum, nil
	case "all", "ALL":
		return ConsistencyAll, nil
	}
	return 0, fmt.Errorf("wire: unknown consistency level %q", s)
}

// Acks returns how many copies the level requires out of the given
// copy count (primary + replicas). Default resolves as Quorum, the
// paper-equivalent mode.
func (c Consistency) Acks(copies int) int {
	if copies < 1 {
		copies = 1
	}
	switch c {
	case ConsistencyOne:
		return 1
	case ConsistencyAll:
		return copies
	default: // Default, Quorum
		return copies/2 + 1
	}
}
