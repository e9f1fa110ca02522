package zht_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"zht"
	"zht/internal/hashing"
)

// BenchmarkDurableWriteParallel is the steady state of the
// tcp-r1-durable-write workload's writes alone: two instances on
// loopback TCP at Replicas=1, every partition store on an async WAL,
// and every partition written once before the timer starts, so no
// store opens its log inside the loop. One shared client then issues
// 132-byte single-op inserts from every core; the owner's record, the
// replica leg and the replica's record are the cost. `make
// profile-durable` runs it under -cpuprofile.
func BenchmarkDurableWriteParallel(b *testing.B) {
	cfg := zht.Config{
		NumPartitions: 1024,
		Replicas:      1,
		DataDir:       b.TempDir(),
		AntiEntropy:   -1,
	}
	c, cleanup := bootTCPCluster(b, cfg, 2)
	defer cleanup()
	val := make([]byte, 132)
	table := c.Table()
	written := make([]bool, cfg.NumPartitions)
	for i, left := 0, cfg.NumPartitions; left > 0; i++ {
		k := fmt.Sprintf("durable-%07d", i)
		if p := table.Partition(hashing.Default(k)); !written[p] {
			if err := c.Insert(k, val); err != nil {
				b.Fatal(err)
			}
			written[p] = true
			left--
		}
	}
	keys := make([]string, 1<<14)
	for i := range keys {
		keys[i] = fmt.Sprintf("durable-%07d", i)
	}
	var worker atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(worker.Add(1)) * 997
		for pb.Next() {
			if err := c.Insert(keys[i%len(keys)], val); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}
