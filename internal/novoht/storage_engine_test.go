package novoht

// Tests for the storage engine: the locked table + group-
// commit WAL must stay observably equivalent to the seed store's
// sequential semantics — under concurrency, across clean close and
// reopen, and across injected crashes at arbitrary byte offsets.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"zht/internal/chaos"
	"zht/internal/storage"
)

// TestConcurrentEquivalenceRandomized drives every mutating op from
// concurrent goroutines over disjoint keyspaces and checks the store
// against a per-goroutine reference model, then (for persistent
// modes) closes, reopens, and checks the replayed state again. Keys
// are disjoint per goroutine, so each goroutine's model is exact even
// though the interleaving across goroutines is not controlled.
func TestConcurrentEquivalenceRandomized(t *testing.T) {
	modes := []storage.Durability{
		storage.DurabilityNone, storage.DurabilityAsync,
		storage.DurabilityGroup, storage.DurabilitySync,
	}
	for _, mode := range modes {
		t.Run(mode.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "eq.log")
			s, err := Open(Options{Path: path, Durability: mode, CompactEvery: 200})
			if err != nil {
				t.Fatal(err)
			}
			const workers, opsPer = 8, 150
			models := make([]map[string][]byte, workers)
			var wg sync.WaitGroup
			errCh := make(chan error, workers)
			for w := 0; w < workers; w++ {
				models[w] = make(map[string][]byte)
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w) + 1))
					model := models[w]
					for i := 0; i < opsPer; i++ {
						k := fmt.Sprintf("w%dk%d", w, rng.Intn(20))
						v := []byte(fmt.Sprintf("w%d-%d", w, i))
						switch rng.Intn(6) {
						case 0, 1:
							if err := s.Put(k, v); err != nil {
								errCh <- err
								return
							}
							model[k] = v
						case 2:
							ok, err := s.PutIfAbsentV(k, v, 0)
							if err != nil {
								errCh <- err
								return
							}
							_, had := model[k]
							if ok == had {
								errCh <- fmt.Errorf("PutIfAbsent(%s) = %v, model had=%v", k, ok, had)
								return
							}
							if ok {
								model[k] = v
							}
						case 3:
							if _, err := s.AppendV(nil, k, v, 0); err != nil {
								errCh <- err
								return
							}
							model[k] = append(append([]byte(nil), model[k]...), v...)
						case 4:
							ok, cur, err := s.CasV(k, model[k], v, 0)
							if err != nil {
								errCh <- err
								return
							}
							if !ok {
								errCh <- fmt.Errorf("Cas(%s) failed, cur=%q model=%q", k, cur, model[k])
								return
							}
							model[k] = v
						case 5:
							ok, err := s.RemoveV(k, 0)
							if err != nil {
								errCh <- err
								return
							}
							_, had := model[k]
							if ok != had {
								errCh <- fmt.Errorf("Remove(%s) = %v, model had=%v", k, ok, had)
								return
							}
							delete(model, k)
						}
						got, ok, err := s.Get(k)
						if err != nil {
							errCh <- err
							return
						}
						want, had := model[k]
						if ok != had || (ok && !bytes.Equal(got, want)) {
							errCh <- fmt.Errorf("Get(%s) = %q %v, model %q %v", k, got, ok, want, had)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}

			merged := make(map[string][]byte)
			for _, m := range models {
				for k, v := range m {
					merged[k] = v
				}
			}
			checkEqualsModel(t, s, merged)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if mode == storage.DurabilityNone {
				return // volatile: nothing to replay
			}
			r, err := Open(Options{Path: path, Durability: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			checkEqualsModel(t, r, merged)
		})
	}
}

// checkEqualsModel asserts the store and the model hold exactly the
// same pairs, probing both directions (ForEach for extras, Get for
// losses).
func checkEqualsModel(t *testing.T, s *Store, model map[string][]byte) {
	t.Helper()
	if s.Len() != len(model) {
		t.Errorf("store has %d keys, model %d", s.Len(), len(model))
	}
	seen := 0
	err := s.ForEachV(func(k string, v []byte, _ uint64) error {
		want, ok := model[k]
		if !ok {
			return fmt.Errorf("store has unexpected key %q", k)
		}
		if !bytes.Equal(v, want) {
			return fmt.Errorf("key %q = %q, model %q", k, v, want)
		}
		seen++
		return nil
	})
	if err != nil {
		t.Error(err)
	}
	if seen != len(model) {
		t.Errorf("ForEach visited %d keys, model has %d", seen, len(model))
	}
}

// TestGroupCrashReplay injects a WAL crash mid-run under group and
// sync durability and verifies the recovery contract. Concurrent
// workers drive mixed PutV/AppendV/RemoveV histories over disjoint
// keys, with log cleans forced into the crash window. After reopen:
//
//   - every acknowledged mutation survives;
//   - each key's recovered state is prefix-consistent: a state its own
//     submission order passed through, at or after the last
//     acknowledged one (submitted-but-unacknowledged writes may have
//     reached the file before the tear), never an invented one;
//   - the recovered store still takes a write, a compaction and a
//     clean close, and a second reopen holds the same keys.
//
// Under sync the tear hits a committer that fsyncs per record.
// `make storage-smoke` runs it on fresh seeds (see chaos.Seeds).
func TestGroupCrashReplay(t *testing.T) {
	modes := []struct {
		suffix string
		mode   storage.Durability
	}{{"", storage.DurabilityGroup}, {"-sync", storage.DurabilitySync}}
	seeds := chaos.Seeds(t, 10, 1, 2, 3, 4, 5)
	for _, m := range modes {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("seed%d%s", seed, m.suffix), func(t *testing.T) {
				crashReplay(t, seed, m.mode)
			})
		}
	}
}

// crashHistory is one key's linear submission order: states[j] is the
// value after the j-th submitted mutation ("" means removed), and
// acked is the index of the last state whose mutation was
// acknowledged. Keys are disjoint per worker, so each history is exact
// without controlling the interleaving across workers.
type crashHistory struct {
	states []string
	acked  int
}

func crashReplay(t *testing.T, seed int64, mode storage.Durability) {
	path := filepath.Join(t.TempDir(), "crash.log")
	fault := chaos.NewWALCrash(seed, 1_000, 64_000)
	s, err := Open(Options{
		Path: path, Durability: mode, Fault: fault,
		CompactEvery: 300, // force log cleans into the crash window
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers, keysPer, opsPer = 4, 8, 2000
	hists := make([]map[string]*crashHistory, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		hists[w] = make(map[string]*crashHistory)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed ^ int64(w+1)))
			for i := 0; i < opsPer; i++ {
				k := fmt.Sprintf("w%dk%d", w, rng.Intn(keysPer))
				h := hists[w][k]
				if h == nil {
					h = &crashHistory{states: []string{""}}
					hists[w][k] = h
				}
				cur := h.states[len(h.states)-1]
				// Stamped like an instance's writes: rising per key,
				// distinct per worker.
				ver := uint64(i+1)*workers + uint64(w)
				var err error
				switch op := rng.Intn(4); {
				case op == 0 && cur != "":
					h.states = append(h.states, "")
					_, err = s.RemoveV(k, ver)
				case op == 1 && cur != "":
					delta := fmt.Sprintf("+a%d", i)
					h.states = append(h.states, cur+delta)
					_, err = s.AppendV(nil, k, []byte(delta), ver)
				default:
					next := fmt.Sprintf("w%d-v%d", w, i)
					h.states = append(h.states, next)
					err = s.PutV(k, []byte(next), ver)
				}
				if err != nil {
					// ErrBroken: the crash fired mid-mutation, so this
					// state is submitted but not acknowledged.
					if !errors.Is(err, storage.ErrBroken) {
						t.Errorf("worker %d: unexpected error %v", w, err)
					}
					return
				}
				h.acked = len(h.states) - 1
			}
		}(w)
	}
	wg.Wait()
	if !fault.Crashed() {
		t.Fatal("crash never fired; widen the byte budget")
	}
	s.Close() // returns the sticky error; the log is what matters

	r, err := Open(Options{Path: path, Durability: mode})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for w := 0; w < workers; w++ {
		for k, h := range hists[w] {
			v, ok, err := r.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			got := ""
			if ok {
				got = string(v)
			}
			if !slices.Contains(h.states[h.acked:], got) {
				t.Errorf("key %s: recovered %q not in submitted suffix %q (acked index %d of %d)",
					k, got, h.states[h.acked:], h.acked, len(h.states)-1)
			}
		}
	}

	// The recovered store must be fully live: writable, compactable,
	// and stable across one more clean close and reopen.
	if err := r.Put("post-recovery", []byte("x")); err != nil {
		t.Fatalf("put after recovery: %v", err)
	}
	if err := r.Compact(); err != nil {
		t.Fatalf("compact after recovery: %v", err)
	}
	before := r.Len()
	if err := r.Close(); err != nil {
		t.Fatalf("clean close after recovery: %v", err)
	}
	r2, err := Open(Options{Path: path, Durability: mode})
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer r2.Close()
	if r2.Len() != before {
		t.Errorf("second reopen holds %d keys, want %d", r2.Len(), before)
	}
}

// TestTornWriteEveryByteOffset truncates the log at every byte offset
// inside the final record and verifies recovery at each: the torn
// record never surfaces, every earlier record survives, and the
// reopened store accepts new writes.
func TestTornWriteEveryByteOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "full.log")
	s, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("keep-a", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("keep-b", []byte("beta")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	prefix := st.Size() // log length before the final record
	if err := s.Put("torn", []byte("this record will be cut at every offset")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) <= prefix {
		t.Fatalf("final record added no bytes (%d <= %d)", len(full), prefix)
	}

	for cut := prefix; cut <= int64(len(full)); cut++ {
		tpath := filepath.Join(dir, "torn.log")
		if err := os.WriteFile(tpath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(Options{Path: tpath})
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		if v, ok, _ := r.Get("keep-a"); !ok || string(v) != "alpha" {
			t.Fatalf("cut=%d: keep-a = %q %v", cut, v, ok)
		}
		if v, ok, _ := r.Get("keep-b"); !ok || string(v) != "beta" {
			t.Fatalf("cut=%d: keep-b = %q %v", cut, v, ok)
		}
		_, ok, _ := r.Get("torn")
		if wantTorn := cut == int64(len(full)); ok != wantTorn {
			t.Fatalf("cut=%d: torn present=%v, want %v", cut, ok, wantTorn)
		}
		// The truncated tail must not poison later writes.
		if err := r.Put("after", []byte("x")); err != nil {
			t.Fatalf("cut=%d: put after recovery: %v", cut, err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("cut=%d: close: %v", cut, err)
		}
	}
}

// TestCloseReopenEquivalence checks the clean-shutdown half of the
// durability contract: Close drains and fsyncs the WAL even in async
// mode, so a close-then-reopen round trip preserves the exact store
// contents.
func TestCloseReopenEquivalence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reopen.log")
	s, err := Open(Options{Path: path, Durability: storage.DurabilityAsync})
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[string][]byte)
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("k%03d", i)
		v := bytes.Repeat([]byte{byte(i)}, 64)
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	for i := 0; i < 64; i += 3 {
		k := fmt.Sprintf("k%03d", i)
		if _, err := s.RemoveV(k, 0); err != nil {
			t.Fatal(err)
		}
		delete(model, k)
	}
	for i := 1; i < 64; i += 3 {
		k := fmt.Sprintf("k%03d", i)
		if _, err := s.AppendV(nil, k, []byte("+tail"), 0); err != nil {
			t.Fatal(err)
		}
		model[k] = append(model[k], []byte("+tail")...)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{Path: path, Durability: storage.DurabilityAsync})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkEqualsModel(t, r, model)
}
