package zht_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"zht"
	"zht/internal/core"
	"zht/internal/loadgen"
	"zht/internal/wire"
)

// BenchmarkHandleParallelZipf is the in-process shape of the
// inproc-parallel-zipf workload, small enough to profile: a
// 2-instance, 1024-partition deployment with no replicas and no
// deadline timers, 200 000 preloaded 132-byte values, and a zipf 1.1
// mix of 45 % lookups, 45 % inserts and 10 % 16-byte appends issued
// through one shared client from every core. Nothing crosses a socket,
// so client routing, Instance.Handle and the partition store are the
// whole cost. `make profile-handle` runs it under -cpuprofile.
func BenchmarkHandleParallelZipf(b *testing.B) {
	const (
		keys      = 200_000
		streamLen = 1 << 16
		preload   = 256 // ops per preload batch
	)
	cfg := zht.Config{NumPartitions: 1024, OpDeadline: -1}
	d, _, err := zht.BootstrapInproc(cfg, 2)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	c, err := d.NewClient()
	if err != nil {
		b.Fatal(err)
	}

	val := make([]byte, 132)
	ops := make([]core.BatchOp, 0, preload)
	for k := 0; k < keys; k++ {
		ops = append(ops, core.BatchOp{Op: wire.OpInsert, Key: fmt.Sprintf("benchk%09d", k), Value: val})
		if len(ops) == preload || k == keys-1 {
			rs, err := c.Batch(ops)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range rs {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
			ops = ops[:0]
		}
	}

	// The stream is generated before the clock starts, so loadgen's
	// per-op formatting is not billed to the system; each goroutine
	// walks it from its own offset.
	g, err := loadgen.New(loadgen.Options{
		Mix:       loadgen.Mix{Lookup: 45, Insert: 45, Append: 10},
		Dist:      loadgen.Zipf{Keys: keys, S: 1.1},
		Seed:      1,
		KeyPrefix: "bench",
	})
	if err != nil {
		b.Fatal(err)
	}
	stream := g.Stream(streamLen)
	delta := make([]byte, 16)
	var worker atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(worker.Add(1)) * (streamLen / 8)
		for pb.Next() {
			op := stream[i%streamLen]
			i++
			var err error
			switch op.Kind {
			case loadgen.OpLookup:
				_, err = c.Lookup(op.Key)
			case loadgen.OpInsert:
				err = c.Insert(op.Key, op.Value)
			case loadgen.OpAppend:
				err = c.Append(op.Key, delta)
			}
			if err != nil && !errors.Is(err, zht.ErrNotFound) {
				b.Error(err)
				return
			}
		}
	})
}
