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
// and ones that outgrow it, appends, compare-and-swaps, conditional
// puts (some counting a stored value as dead), removes of present and
// absent keys, buries that leave tombstones, stale replicated writes
// the pairs and tombstones refuse, owner writes stamped at or below the
// stored stamp that the store lifts above it, reclaims as the store's clock passes RemoveGrace,
// enough keys to grow the index several times, and full and per-leaf
// iterations. After every step the store must agree with the map. The "collide" variant swaps the probe hash for one with four
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
	// tombs models the store's tombstones: each key's buried stamp and
	// the step it was laid at. The store's wall clock moves stepMs per
	// step, so a tombstone is reclaimed graceSteps after it is laid,
	// when the next one is laid.
	type tomb struct {
		ver uint64
		at  int
	}
	tombs := map[string]tomb{}
	const stepMs = 10
	graceSteps := int(RemoveGrace.Milliseconds() / stepMs)
	var now int64
	s.SetWallClock(func() int64 { return now })
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
		now = int64(i) * stepMs
		// stored is the stamp an owner's write of k must land above: the
		// pair's, else the tombstone's. One owner write in three is given
		// a stamp at or below it, as a writer that read its floor before
		// another writer of k reached the store is; the store lands it
		// one millisecond above (storage.StampAbove).
		stored := tombs[k].ver
		if present {
			stored = cur.ver
		}
		stamp := func() (given, want uint64) {
			if stored > 0 && rng.Intn(3) == 0 {
				given = stored - uint64(rng.Intn(int(min(stored, 3))))
			} else {
				clock++
				given = clock
			}
			return given, storage.StampAbove(stored, given)
		}
		checkStamp := func(op string, got, want uint64) {
			if got != want {
				t.Fatalf("step %d: %s(%q) over stamp %d stored %d, want %d", i, op, k, stored, got, want)
			}
		}
		switch op := rng.Intn(12); {
		case op < 4:
			v := value(i)
			if present && rng.Intn(2) == 0 {
				v = bytes.Repeat([]byte{'='}, len(cur.val)) // same length: in place
			}
			ver, want := stamp()
			got, err := s.PutV(k, v, ver)
			if err != nil {
				t.Fatal(err)
			}
			checkStamp("PutV", got, want)
			model[k] = pair{string(v), want}
			delete(tombs, k)
		case op < 6:
			d := value(i)
			d = d[:min(len(d), rng.Intn(20))]
			// Version 0 keeps the pair's stamp; a new one replaces it.
			ver, keep := uint64(0), cur.ver
			if rng.Intn(2) == 0 {
				ver, keep = stamp()
			}
			got, gotVer, err := s.AppendV([]byte{}, k, d, ver)
			if err != nil {
				t.Fatal(err)
			}
			if ver > 0 {
				checkStamp("AppendV", gotVer, keep)
			}
			model[k] = pair{cur.val + string(d), keep}
			delete(tombs, k)
			if string(got) != model[k].val {
				t.Fatalf("step %d: AppendV(%q) returned %q, want %q", i, k, got, model[k].val)
			}
		case op < 8 && rng.Intn(2) == 0:
			ok, _, err := s.RemoveV(k, 0)
			if err != nil || ok != present {
				t.Fatalf("step %d: RemoveV(%q) = %v, %v; present %v", i, k, ok, err, present)
			}
			delete(model, k)
		case op < 8:
			ver, want := stamp()
			ok, got, err := s.BuryV(k, ver)
			if err != nil || ok != present {
				t.Fatalf("step %d: BuryV(%q) = %v, %v; present %v", i, k, ok, err, present)
			}
			checkStamp("BuryV", got, want)
			delete(model, k)
			tombs[k] = tomb{want, i}
			for tk, tb := range tombs {
				if tb.at < i-graceSteps {
					delete(tombs, tk)
				}
			}
		case op < 9:
			// A stale copy: at the tombstone's stamp or the pair's, it
			// is refused; onto a key with neither, it lands.
			ok, err := s.PutLWW(k, []byte("stale"), stored)
			if err != nil || ok == (present || tombs[k].ver > 0) {
				t.Fatalf("step %d: PutLWW(%q, v%d) = %v, %v; present %v, tombstone %+v", i, k, stored, ok, err, present, tombs[k])
			}
			if ok {
				model[k] = pair{"stale", stored}
			}
		case op < 10:
			// A compare-and-swap that matches half the time: the pair's
			// value, or absence, is what it expects.
			var old []byte
			if match := rng.Intn(2) == 0; match && present {
				old = append([]byte{}, cur.val...)
			} else if !match {
				old = []byte("no such value")
			}
			swap := (old == nil) != present && (old == nil || string(old) == cur.val)
			v := value(i)
			ver, want := stamp()
			ok, seen, got, err := s.CasV(k, old, v, ver)
			if err != nil || ok != swap || !ok && string(seen) != cur.val {
				t.Fatalf("step %d: CasV(%q, %q) = %v, %q, %v; present %v, value %q", i, k, old, ok, seen, err, present, cur.val)
			}
			if ok {
				checkStamp("CasV", got, want)
				model[k] = pair{string(v), want}
				delete(tombs, k)
			}
		case op < 11:
			// Half the conditional puts count a value of odd length as
			// dead, so they replace it above its stamp.
			v := value(i)
			ver, want := stamp()
			var dead func([]byte) bool
			if rng.Intn(2) == 0 {
				dead = func(v []byte) bool { return len(v)%2 == 1 }
			}
			absent := !present || dead != nil && dead([]byte(cur.val))
			ok, got, err := s.PutIfAbsentV(k, v, ver, dead)
			if err != nil || ok != absent {
				t.Fatalf("step %d: PutIfAbsentV(%q) = %v, %v; absent %v", i, k, ok, err, absent)
			}
			if ok {
				checkStamp("PutIfAbsentV", got, want)
				model[k] = pair{string(v), want}
				delete(tombs, k)
			}
		default:
			v, ver, ok, _ := s.GetAppendV(scratch[:0], k)
			scratch = v
			if ok != present || string(v) != cur.val || ver != cur.ver {
				t.Fatalf("step %d: Get(%q) = %q v%d %v, want %q v%d %v", i, k, v, ver, ok, cur.val, cur.ver, present)
			}
		}
		if i%(steps/20) == 0 || i == steps-1 {
			checkIndex(t, s, model, rng)
			if s.ntomb != len(tombs) {
				t.Fatalf("step %d: store keeps %d tombstones, model %d", i, s.ntomb, len(tombs))
			}
			for k, tb := range tombs {
				if ver := storedVer(s, k); ver != tb.ver {
					t.Fatalf("step %d: stored stamp of %q = %d, want the tombstone's %d", i, k, ver, tb.ver)
				}
			}
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
	if occupied != len(model)+s.ntomb {
		t.Fatalf("%d occupied slots, %d pairs and %d tombstones", occupied, len(model), s.ntomb)
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
