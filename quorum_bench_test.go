package zht_test

import (
	"sync/atomic"
	"testing"

	"zht"
)

// BenchmarkQuorumLookupParallel is the QUORUM read of the
// tcp-r1-durable-write workload alone: two instances on loopback TCP
// at Replicas=1, so every read asks the owner and one replica copy,
// issued through one shared client from every core over the keys
// benchTCPQuorumClient preloads. The client's fan-out, the transport's
// split-phase calls and the two servers' lookups are the whole cost.
// `make profile-quorum` runs it under -cpuprofile.
func BenchmarkQuorumLookupParallel(b *testing.B) {
	c, keys, cleanup := benchTCPQuorumClient(b)
	defer cleanup()
	var worker atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(worker.Add(1)) * 97
		for pb.Next() {
			if _, err := c.LookupWith(keys[i%len(keys)], zht.ConsistencyQuorum); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}
