package core

// Tests for the instance's one log: every partition store of an
// instance shares DataDir/<id>.log, the whole log is replayed at boot,
// a DataDir written with one log per partition is imported, and a
// stamped pair must hash to the partition it names.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"zht/internal/novoht"
	"zht/internal/repair"
	"zht/internal/ring"
	"zht/internal/storage"
	"zht/internal/transport"
	"zht/internal/wire"
)

// dataDirFiles lists the names in dir.
func dataDirFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestDurableDeploymentKeepsOneLogPerInstance writes to every partition
// of a durable 2-instance, 1 024-partition deployment with a replica
// each: every instance holds all 1 024 partitions, and the DataDir
// holds one log per instance.
func TestDurableDeploymentKeepsOneLogPerInstance(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{NumPartitions: 1024, Replicas: 1, DataDir: dir, RetryBase: time.Millisecond}
	d, _, c := startDeployment(t, cfg, 2)
	table := d.Instance(0).Table()
	hash := cfg.hash()
	written := make([]bool, cfg.NumPartitions)
	for i, left := 0, cfg.NumPartitions; left > 0; i++ {
		k := fmt.Sprintf("every-%d", i)
		if p := table.Partition(hash(k)); !written[p] {
			if err := c.Insert(k, []byte("v")); err != nil {
				t.Fatal(err)
			}
			written[p] = true
			left--
		}
	}
	for i := 0; i < 2; i++ {
		if n := d.Instance(i).LocalKeys(); n != cfg.NumPartitions {
			t.Fatalf("instance %d holds %d keys, want one in each of %d partitions", i, n, cfg.NumPartitions)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := dataDirFiles(t, dir), []string{"zht-0000.log", "zht-0001.log"}; !slices.Equal(got, want) {
		t.Fatalf("DataDir holds %v, want %v", got, want)
	}
}

// TestReplicaReadAfterRestart pins that a restarted instance answers
// replica reads for every partition its log holds, touched since boot
// or not: a quorum read must not lose that copy's vote.
func TestReplicaReadAfterRestart(t *testing.T) {
	cfg := Config{NumPartitions: 8, Replicas: 1, DataDir: t.TempDir(), RetryBase: time.Millisecond}
	d, _, c := startDeployment(t, cfg, 2)
	const key = "replicated"
	if err := c.Insert(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	table := d.Instance(0).Table()
	p := table.Partition(cfg.hash()(key))
	replicas := table.ReplicasOf(p, 1)
	if len(replicas) != 1 {
		t.Fatalf("partition %d has replicas %v", p, replicas)
	}
	d.Drain()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	in, err := NewInstance(cfg, replicas[0], table, transport.NewRegistry().NewClient())
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	resp := in.Handle(&wire.Request{Op: wire.OpLookup, Key: key, Flags: wire.FlagReplicaRead})
	if resp.Status != wire.StatusOK || string(resp.Value) != "v" || resp.Version == 0 {
		t.Fatalf("replica read after restart = %s %q at version %d, want ok \"v\" with its stamp",
			resp.Status, resp.Value, resp.Version)
	}
}

// TestImportPartitionLogs boots on a DataDir written with one log per
// partition, as NoVoHT's Open writes it: every pair comes back with its
// stamp, the old files are gone, and the next write stamps above every
// imported pair. A crash before the unlink only repeats the import.
func TestImportPartitionLogs(t *testing.T) {
	dir, backup := t.TempDir(), t.TempDir()
	cfg := Config{NumPartitions: 8, Replicas: 0, DataDir: dir, RetryBase: time.Millisecond}
	eps := InprocEndpoints(2)
	members := make([]ring.Instance, len(eps))
	for i, ep := range eps {
		members[i] = ring.Instance{ID: ring.InstanceID(fmt.Sprintf("zht-%04d", i)), Addr: ep.Addr, Node: ep.Node}
	}
	table, err := ring.New(cfg.NumPartitions, members)
	if err != nil {
		t.Fatal(err)
	}
	hash := cfg.hash()
	type want struct {
		val string
		ver uint64
	}
	wants := map[string]want{}
	old := map[string]*novoht.Store{}
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("legacy-%d", i)
		p := table.Partition(hash(k))
		name := fmt.Sprintf("%s-p%06d.log", table.OwnerOf(p).ID, p)
		s := old[name]
		if s == nil {
			if s, err = novoht.Open(novoht.Options{Path: filepath.Join(dir, name)}); err != nil {
				t.Fatal(err)
			}
			old[name] = s
		}
		w := want{fmt.Sprintf("v%d", i), uint64(100+i) << storage.StampNodeBits}
		switch i % 4 {
		case 0:
			w.ver = 0 // written before versioning
			err = s.Put(k, []byte(w.val))
		case 1:
			_, _, err = s.AppendV(nil, k, []byte(w.val), w.ver)
		default:
			_, err = s.PutV(k, []byte(w.val), w.ver)
		}
		if err != nil {
			t.Fatal(err)
		}
		wants[k] = w
	}
	for name, s := range old {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(backup, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// A volatile instance leaves the old files alone.
	volatile := cfg
	volatile.Durability = storage.DurabilityNone
	dv, _, _ := startDeployment(t, volatile, 2)
	if n := dv.Instance(0).LocalKeys() + dv.Instance(1).LocalKeys(); n != 0 {
		t.Fatalf("a volatile instance imported %d pairs", n)
	}
	if err := dv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := dataDirFiles(t, dir); len(got) != len(old) {
		t.Fatalf("a volatile instance changed the DataDir to %v", got)
	}

	boot := func(round string) (*Deployment, *Client, map[string][]uint64) {
		d, _, c := startDeployment(t, cfg, 2)
		digests := map[string][]uint64{}
		for k, w := range wants {
			p := table.Partition(hash(k))
			owner := d.Instance(table.IndexOf(table.OwnerOf(p).ID))
			v, ver, ok := storeVer(t, owner, p, k)
			if !ok || string(v) != w.val || ver != w.ver {
				t.Fatalf("%s: %s = %q@%d %v, want %q@%d", round, k, v, ver, ok, w.val, w.ver)
			}
			digests[fmt.Sprintf("%s/%d", owner.ID(), p)] = owner.PartitionDigest(p)
		}
		if got, want := dataDirFiles(t, dir), []string{"zht-0000.log", "zht-0001.log"}; !slices.Equal(got, want) {
			t.Fatalf("%s: DataDir holds %v, want %v", round, got, want)
		}
		return d, c, digests
	}
	d, _, first := boot("import")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash before the unlink leaves the old files beside the log.
	for name := range old {
		b, err := os.ReadFile(filepath.Join(backup, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d, c, again := boot("repeated import")
	if !reflect.DeepEqual(again, first) {
		t.Fatal("repeating the import changed a partition digest")
	}

	var top uint64
	for _, w := range wants {
		top = max(top, w.ver)
	}
	k := "legacy-2"
	if err := c.Insert(k, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	p := table.Partition(hash(k))
	if _, ver, _ := storeVer(t, d.Instance(table.IndexOf(table.OwnerOf(p).ID)), p, k); ver <= top {
		t.Fatalf("write after import stamped %d, not above the imported %d", ver, top)
	}
}

// TestInstallRefusesForeignPartition pins the routing invariant where
// stamped pairs arrive from the network: a replica leg, a migration
// push or a repair transfer naming partition p must carry keys that
// hash to p, because the log replays each record into the partition its
// key hashes to.
func TestInstallRefusesForeignPartition(t *testing.T) {
	cfg := Config{NumPartitions: 8, Replicas: 1}
	d, _, _ := startDeployment(t, cfg, 2)
	in := d.Instance(0)
	key := keyForPartition(t, cfg, in.Table(), 1)
	ver := uint64(7) << storage.StampNodeBits

	all := allLeaves()
	pairs := repair.EncodePairs([]repair.Pair{{Key: key, Value: []byte("v"), Ver: ver}})
	foreign := func(p int64) map[string]*wire.Request {
		return map[string]*wire.Request{
			"replica insert": {Op: wire.OpReplicate, Partition: p, Key: key, Value: []byte("v"), Version: ver,
				Aux: encodeReplicaAux(wire.OpInsert)},
			"replica remove": {Op: wire.OpReplicate, Partition: p, Key: key, Version: ver + 1,
				Aux: encodeReplicaAux(wire.OpRemove)},
			"migration push": {Op: wire.OpRepairPull, Partition: p, Flags: wire.FlagWholesale,
				Aux: repair.EncodeLeafSet(all), Value: pairs},
			"repair leaves": {Op: wire.OpRepairPull, Partition: p, Aux: repair.EncodeLeafSet(all), Value: pairs},
		}
	}
	for name, req := range foreign(0) {
		if resp := in.Handle(req); resp.Status != wire.StatusError {
			t.Errorf("%s of a partition-1 key into partition 0 = %s, want an error", name, resp.Status)
		}
	}
	if s := in.storeIfPresent(0); s != nil && s.Len() != 0 {
		t.Fatalf("partition 0 took %d foreign pairs", s.Len())
	}
	if resp := in.Handle(foreign(1)["replica insert"]); resp.Status != wire.StatusOK {
		t.Fatalf("replica insert into the key's own partition = %s %s", resp.Status, resp.Err)
	}
}
