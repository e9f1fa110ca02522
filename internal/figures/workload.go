package figures

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"zht/internal/core"
	"zht/internal/wire"
)

// The paper's micro-benchmark workload (§IV.A): 15-byte keys,
// 132-byte values; clients send insert, then lookup, then remove;
// communication is all-to-all with as many clients as servers.

const (
	keyLen = 15
	valLen = 132
)

func benchKey(client, i int) string {
	return fmt.Sprintf("c%04dk%09d", client, i)[:keyLen]
}

var benchValue = bytes.Repeat([]byte{'v'}, valLen)

// Stats aggregates a measured workload.
type Stats struct {
	Ops     int
	Elapsed time.Duration
	// ErrCount is how many of Ops failed with an error the run
	// tolerated.
	ErrCount int
}

// Latency is mean time per op.
func (s Stats) Latency() time.Duration {
	if s.Ops == 0 {
		return 0
	}
	return s.Elapsed / time.Duration(s.Ops)
}

// Throughput is aggregate ops/second.
func (s Stats) Throughput() float64 {
	if s.Elapsed == 0 {
		return 0
	}
	return float64(s.Ops) / s.Elapsed.Seconds()
}

// runAllToAll runs the lockstep workload with nClients clients of d.
func runAllToAll(d *core.Deployment, nClients, opsPer int) (Stats, error) {
	clients := make([]*core.Client, nClients)
	for i := range clients {
		c, err := d.NewClient()
		if err != nil {
			return Stats{}, err
		}
		clients[i] = c
	}
	return RunAllToAll(clients, opsPer, 1, nil)
}

// RunAllToAll drives the paper's workload: the clients run
// concurrently, each performing opsPer insert → lookup → remove rounds
// on keys of its own. With batch ≤ 1 every op is one lockstep round
// trip; otherwise each client sends batch keys per phase as one
// Client.Batch call, so a phase costs one envelope per destination
// instead of one round trip per key. An op error that tolerate (which
// may be nil) accepts is counted in ErrCount; any other error ends the
// run.
func RunAllToAll(clients []*core.Client, opsPer, batch int, tolerate func(error) bool) (Stats, error) {
	tolerated := make([]int, len(clients))
	var wg sync.WaitGroup
	errs := make(chan error, len(clients))
	start := time.Now()
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *core.Client) {
			defer wg.Done()
			n, err := runClient(c, ci, opsPer, batch, tolerate)
			tolerated[ci] = n
			if err != nil {
				errs <- err
			}
		}(ci, c)
	}
	wg.Wait()
	st := Stats{Ops: len(clients) * opsPer * 3, Elapsed: time.Since(start)}
	close(errs)
	for err := range errs {
		return Stats{}, err
	}
	for _, n := range tolerated {
		st.ErrCount += n
	}
	return st, nil
}

// runClient is client ci's share of RunAllToAll. It returns how many
// of its ops failed with a tolerated error.
func runClient(c *core.Client, ci, opsPer, batch int, tolerate func(error) bool) (int, error) {
	tolerated := 0
	check := func(err error) error {
		if err != nil && tolerate != nil && tolerate(err) {
			tolerated++
			return nil
		}
		return err
	}
	if batch <= 1 {
		for i := 0; i < opsPer; i++ {
			k := benchKey(ci, i)
			if err := check(c.Insert(k, benchValue)); err != nil {
				return tolerated, err
			}
			if _, err := c.Lookup(k); check(err) != nil {
				return tolerated, err
			}
			if err := check(c.Remove(k)); err != nil {
				return tolerated, err
			}
		}
		return tolerated, nil
	}
	keys := make([]string, batch)
	ops := make([]core.BatchOp, batch)
	for i := 0; i < opsPer; i += batch {
		keys = keys[:min(batch, opsPer-i)]
		for j := range keys {
			keys[j] = benchKey(ci, i+j)
		}
		for _, op := range []wire.Op{wire.OpInsert, wire.OpLookup, wire.OpRemove} {
			var v []byte
			if op == wire.OpInsert {
				v = benchValue
			}
			ops = ops[:len(keys)]
			for j, k := range keys {
				ops[j] = core.BatchOp{Op: op, Key: k, Value: v}
			}
			rs, err := c.Batch(ops)
			if err != nil {
				return tolerated, err
			}
			for _, r := range rs {
				if err := check(r.Err); err != nil {
					return tolerated, err
				}
			}
		}
	}
	return tolerated, nil
}
