package novoht

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"zht/internal/chaos"
	"zht/internal/storage"
)

// TestIndexEquivalence drives a volatile store and a Go map with the
// same random history: puts of new keys, overwrites that fit the cell
// and ones that outgrow it, appends, removes of present and absent
// keys, enough keys to grow the index several times, and full and
// per-leaf iterations. After every step the store must agree with the
// map. The "collide" variant swaps the probe hash for one with four
// values, all homed in the last slots of the table, so every probe
// chain is long and wraps around the end, and backward-shift delete
// runs on long runs of equal hashes. `make storage-smoke` runs it on
// fresh seeds (see chaos.Seeds).
func TestIndexEquivalence(t *testing.T) {
	for _, seed := range chaos.Seeds(t, 4, 1, 2) {
		for _, collide := range []bool{false, true} {
			name := fmt.Sprintf("seed%d", seed)
			if collide {
				name += "-collide"
			}
			t.Run(name, func(t *testing.T) {
				keys, steps := 3000, 20000
				if collide {
					keys, steps = 100, 4000
					// probeMask-k lands in the top slots of every table size.
					testHash = func(key string) uint64 { return probeMask - uint64(len(key)%4) }
					t.Cleanup(func() { testHash = nil })
				}
				indexEquivalence(t, rand.New(rand.NewSource(seed)), keys, steps)
			})
		}
	}
}

func indexEquivalence(t *testing.T, rng *rand.Rand, keys, steps int) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	model := map[string]pair{}
	var clock uint64
	value := func(i int) []byte {
		// Lengths from 0 to ~300 bytes: overwrites land both in place
		// and in a new cell.
		return bytes.Repeat([]byte{byte('a' + i%26)}, rng.Intn(300))
	}
	var scratch []byte
	for i := 0; i < steps; i++ {
		// Keys of varied lengths, so the collide hash (by key length)
		// mixes runs of different homes.
		k := fmt.Sprintf("k%0*d", 1+rng.Intn(6), rng.Intn(keys))
		cur, present := model[k]
		switch op := rng.Intn(10); {
		case op < 4:
			v := value(i)
			if present && rng.Intn(2) == 0 {
				v = bytes.Repeat([]byte{'='}, len(cur.val)) // same length: in place
			}
			clock++
			if err := s.PutV(k, v, clock); err != nil {
				t.Fatal(err)
			}
			model[k] = pair{string(v), clock}
		case op < 6:
			d := value(i)
			d = d[:min(len(d), rng.Intn(20))]
			// Version 0 keeps the pair's stamp; a new one replaces it.
			ver, keep := uint64(0), cur.ver
			if rng.Intn(2) == 0 {
				clock++
				ver, keep = clock, clock
			}
			got, err := s.AppendV([]byte{}, k, d, ver)
			if err != nil {
				t.Fatal(err)
			}
			model[k] = pair{cur.val + string(d), keep}
			if string(got) != model[k].val {
				t.Fatalf("step %d: AppendV(%q) returned %q, want %q", i, k, got, model[k].val)
			}
		case op < 8:
			ok, err := s.RemoveV(k, 0)
			if err != nil || ok != present {
				t.Fatalf("step %d: RemoveV(%q) = %v, %v; present %v", i, k, ok, err, present)
			}
			delete(model, k)
		default:
			v, ver, ok, _ := s.GetAppendV(scratch[:0], k)
			scratch = v
			if ok != present || string(v) != cur.val || ver != cur.ver {
				t.Fatalf("step %d: Get(%q) = %q v%d %v, want %q v%d %v", i, k, v, ver, ok, cur.val, cur.ver, present)
			}
		}
		if i%(steps/20) == 0 || i == steps-1 {
			checkIndex(t, s, model, rng)
		}
	}
}

// checkIndex compares the whole store with the model: Len, a get of
// every key, ForEachV, ForEachLeafV over a random leaf set, the digest,
// and the index's own invariants (every occupied slot reachable from
// its home, the leaf bits equal to storage.LeafOf).
func checkIndex(t *testing.T, s *Store, model map[string]pair, rng *rand.Rand) {
	t.Helper()
	if s.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", s.Len(), len(model))
	}
	for k, m := range model {
		v, ver, ok, _ := s.GetAppendV(nil, k)
		if !ok || string(v) != m.val || ver != m.ver {
			t.Fatalf("Get(%q) = %q v%d %v, want %q v%d", k, v, ver, ok, m.val, m.ver)
		}
	}
	got := pairsOf(t, s)
	if !reflect.DeepEqual(got, model) {
		t.Fatalf("ForEachV disagrees with the model: %d pairs, want %d", len(got), len(model))
	}
	leaves := rng.Perm(storage.Leaves)[:rng.Intn(storage.Leaves+1)]
	checkLeaves(t, s, model, leaves)
	checkDigest(t, s, "equivalence step")

	occupied := 0
	for i, sl := range s.idx.slots {
		if sl.p == nil {
			continue
		}
		occupied++
		k := sl.p.key()
		if j := s.idx.find(k, sl.h&probeMask); j != i {
			t.Fatalf("slot %d (%q) unreachable: find returned %d", i, k, j)
		}
		if sl.leaf() != storage.LeafOf(k) {
			t.Fatalf("slot %d (%q) keeps leaf %d, LeafOf is %d", i, k, sl.leaf(), storage.LeafOf(k))
		}
	}
	if occupied != s.idx.n {
		t.Fatalf("%d occupied slots, index counts %d", occupied, s.idx.n)
	}
}

// checkLeaves requires ForEachLeafV(leaves) to yield exactly the model
// pairs whose leaf is in leaves.
func checkLeaves(t *testing.T, s *Store, model map[string]pair, leaves []int) {
	t.Helper()
	in := map[int]bool{}
	for _, l := range leaves {
		in[l] = true
	}
	want := map[string]pair{}
	for k, m := range model {
		if in[storage.LeafOf(k)] {
			want[k] = m
		}
	}
	got := map[string]pair{}
	if err := s.ForEachLeafV(leaves, func(k string, v []byte, ver uint64) error {
		if _, dup := got[k]; dup {
			t.Fatalf("ForEachLeafV visited %q twice", k)
		}
		got[k] = pair{string(v), ver}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ForEachLeafV(%v) yielded %d pairs, want %d", leaves, len(got), len(want))
	}
}

// Keys ForEachV yields alias the store's cells, so they must survive
// every later mutation of their pair: an in-place overwrite, a move to
// a bigger cell, an append and a remove.
func TestForEachKeysStayValid(t *testing.T) {
	s, _ := Open(Options{})
	defer s.Close()
	for i := 0; i < 100; i++ {
		s.Put(fmt.Sprintf("key-%03d", i), []byte("v"))
	}
	var kept []string
	s.ForEachV(func(k string, _ []byte, _ uint64) error {
		kept = append(kept, k)
		return nil
	})
	for i, k := range kept {
		switch i % 4 {
		case 0:
			s.Put(k, []byte("w"))
		case 1:
			s.Put(k, bytes.Repeat([]byte("long"), 100))
		case 2:
			s.AppendV(nil, k, []byte("+tail"), 0)
		case 3:
			s.RemoveV(k, 0)
		}
	}
	seen := map[string]bool{}
	for _, k := range kept {
		var i int
		if _, err := fmt.Sscanf(k, "key-%03d", &i); err != nil || i >= 100 || seen[k] {
			t.Fatalf("kept key changed to %q", k)
		}
		seen[k] = true
	}
	if len(seen) != 100 {
		t.Fatalf("ForEachV yielded %d keys, want 100", len(seen))
	}
}

// One allocation per pair: a PutV of a new key allocates its cell and,
// amortized, nothing for the index's growth; an overwrite with a value
// of the same length and a GetAppendV into scratch allocate nothing.
func TestCellAllocs(t *testing.T) {
	s, _ := Open(Options{})
	defer s.Close()
	const n = 4096
	keys := make([]string, n+1)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%010d", i)
	}
	val := bytes.Repeat([]byte{'v'}, 132)
	next := 0
	if a := testing.AllocsPerRun(n, func() {
		s.PutV(keys[next], val, 0)
		next++
	}); a > 1 {
		t.Errorf("PutV of a new key: %v allocs, want <= 1", a)
	}
	other := bytes.Repeat([]byte{'w'}, len(val))
	if a := testing.AllocsPerRun(1000, func() { s.PutV(keys[7], other, 0) }); a != 0 {
		t.Errorf("same-length overwrite: %v allocs, want 0", a)
	}
	scratch := make([]byte, 0, 256)
	if a := testing.AllocsPerRun(1000, func() { s.GetAppendV(scratch[:0], keys[9]) }); a != 0 {
		t.Errorf("GetAppendV into scratch: %v allocs, want 0", a)
	}
}
