// Command storagesmoke is the `make storage-smoke` gate: a short
// randomized crash-recovery loop for the storage engine. Each
// iteration opens a NoVoHT store with an armed chaos.WALCrash fault
// (the write-ahead log tears at a seeded random byte offset and
// everything after it fails), drives concurrent mutations against it
// until the crash fires, then reopens the log without the fault and
// checks the recovery contract:
//
//   - every acknowledged mutation survives — the recovered state of
//     each key is at least its last acknowledged state, and
//   - recovery is prefix-consistent — the recovered state is one the
//     key's own submission order actually passed through, never an
//     invented one,
//   - and the reopened store still accepts writes and survives a
//     compaction plus a second clean reopen.
//
// Seeds are randomized per run but printed, so any failure is
// replayable with -seed. Run from the repository root:
// go run ./internal/tools/storagesmoke
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"zht/internal/chaos"
	"zht/internal/novoht"
	"zht/internal/storage"
)

func main() {
	iters := flag.Int("iters", 20, "crash-recovery iterations")
	seed := flag.Int64("seed", 0, "base seed (0 = derive from time, printed for replay)")
	flag.Parse()
	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}
	fmt.Printf("storage-smoke: %d iterations, seed %d\n", *iters, *seed)
	for i := 0; i < *iters; i++ {
		mode := storage.DurabilityGroup
		if i%3 == 2 {
			mode = storage.DurabilitySync
		}
		if err := crashIteration(*seed+int64(i), mode); err != nil {
			fmt.Fprintf(os.Stderr, "storage-smoke: FAIL iteration %d (seed %d, %s): %v\n",
				i, *seed+int64(i), mode, err)
			os.Exit(1)
		}
	}
	fmt.Println("storage-smoke: ok")
}

// history is one key's linear submission order: states[j] is the
// value after the j-th submitted mutation ("" means removed), and
// acked is the index of the last state whose mutation was
// acknowledged. Keys are disjoint per worker, so each history is
// exact without controlling cross-worker interleaving.
type history struct {
	states []string
	acked  int
}

func crashIteration(seed int64, mode storage.Durability) error {
	dir, err := os.MkdirTemp("", "zht-smoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "smoke.log")

	fault := chaos.NewWALCrash(seed, 1_000, 64_000)
	var s storage.KV
	s, err = novoht.Open(novoht.Options{
		Path: path, Durability: mode, Fault: fault,
		CompactEvery: 300, // force compactions into the crash window
	})
	if err != nil {
		return err
	}

	const workers, keysPer, opsPer = 4, 8, 2000
	hists := make([]map[string]*history, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		hists[w] = make(map[string]*history)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed ^ int64(w+1)))
			for i := 0; i < opsPer; i++ {
				k := fmt.Sprintf("w%dk%d", w, rng.Intn(keysPer))
				h := hists[w][k]
				if h == nil {
					h = &history{states: []string{""}}
					hists[w][k] = h
				}
				cur := h.states[len(h.states)-1]
				var next string
				var err error
				// Stamped like an instance's writes: rising per key,
				// distinct per worker.
				ver := uint64(i+1)*workers + uint64(w)
				switch op := rng.Intn(4); {
				case op == 0 && cur != "":
					next = ""
					h.states = append(h.states, next)
					_, err = s.RemoveV(k, ver)
				case op == 1 && cur != "":
					next = cur + fmt.Sprintf("+a%d", i)
					h.states = append(h.states, next)
					_, err = s.AppendV(nil, k, []byte(fmt.Sprintf("+a%d", i)), ver)
				default:
					next = fmt.Sprintf("w%d-v%d", w, i)
					h.states = append(h.states, next)
					err = s.PutV(k, []byte(next), ver)
				}
				if err != nil {
					if errors.Is(err, storage.ErrBroken) {
						// The crash fired mid-mutation: this state is
						// submitted but not acknowledged. Stop here.
						return
					}
					// Any other error is a real bug; surface it as a
					// guaranteed-to-fail history.
					h.states = append(h.states, fmt.Sprintf("UNEXPECTED ERROR %v", err))
					return
				}
				h.acked = len(h.states) - 1
			}
		}(w)
	}
	wg.Wait()
	crashed := fault.Crashed()
	s.Close() // sticky error expected after a crash; the log is what matters

	var r storage.KV
	r, err = novoht.Open(novoht.Options{Path: path, Durability: mode})
	if err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	defer r.Close()
	if !crashed {
		// Budget never ran out (rare with these op counts): the close
		// was clean, so recovery must be exact, which the prefix rule
		// below already implies (acked is the final state).
		fmt.Printf("  seed %d: crash did not fire; checking clean-close equivalence\n", seed)
	}
	for w := 0; w < workers; w++ {
		for k, h := range hists[w] {
			v, ok, err := r.Get(k)
			if err != nil {
				return fmt.Errorf("Get(%s): %w", k, err)
			}
			got := ""
			if ok {
				got = string(v)
			}
			// The recovered state must be one this key actually
			// passed through, at or after the last acknowledged one.
			valid := false
			for _, st := range h.states[h.acked:] {
				if got == st {
					valid = true
					break
				}
			}
			if !valid {
				return fmt.Errorf("key %s: recovered %q not in submitted suffix %q (acked index %d of %d)",
					k, got, h.states[h.acked:], h.acked, len(h.states)-1)
			}
		}
	}

	// The recovered store must be fully live: writable, compactable,
	// and stable across one more clean close/reopen.
	if err := r.Put("post-recovery", []byte("x")); err != nil {
		return fmt.Errorf("put after recovery: %w", err)
	}
	if nv, ok := r.(interface{ Compact() error }); ok {
		if err := nv.Compact(); err != nil {
			return fmt.Errorf("compact after recovery: %w", err)
		}
	}
	before := r.Len()
	if err := r.Close(); err != nil {
		return fmt.Errorf("clean close after recovery: %w", err)
	}
	r2, err := novoht.Open(novoht.Options{Path: path, Durability: mode})
	if err != nil {
		return fmt.Errorf("second reopen: %w", err)
	}
	defer r2.Close()
	if r2.Len() != before {
		return fmt.Errorf("second reopen lost keys: %d != %d", r2.Len(), before)
	}
	return nil
}
