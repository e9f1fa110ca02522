package novoht

// Tests for the caller-committed WAL: it starts no goroutine, an async
// mutation's record is in the file once the calls on the store have
// returned, and group mode still coalesces concurrent records into
// shared commits.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"zht/internal/metrics"
	"zht/internal/storage"
)

// TestWALStartsNoGoroutine pins that a persistent store runs no
// goroutine of its own: opening and writing 64 stores per durability
// mode leaves the goroutine count where it was, and so does closing
// them.
func TestWALStartsNoGoroutine(t *testing.T) {
	modes := []storage.Durability{storage.DurabilityAsync, storage.DurabilityGroup, storage.DurabilitySync}
	for _, mode := range modes {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			base := runtime.NumGoroutine()
			stores := make([]*Store, 64)
			for i := range stores {
				s, err := Open(Options{Path: filepath.Join(dir, fmt.Sprintf("p%02d.log", i)), Durability: mode})
				if err != nil {
					t.Fatal(err)
				}
				stores[i] = s
				if err := s.Put("k", []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("64 open %s stores: %d goroutines, %d before Open", mode, n, base)
			}
			for _, s := range stores {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("after Close: %d goroutines, %d before Open", n, base)
			}
		})
	}
}

// logOnDisk reports the log file's size next to the store's logical
// log length.
func logOnDisk(t *testing.T, s *Store, path string) (file, logical int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size(), s.Stats().LogBytes
}

// TestAsyncWriteThroughLone pins the async contract for a lone writer:
// each mutation's record is in the file when the call returns, with no
// Sync or Close.
func TestAsyncWriteThroughLone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "async.log")
	s := openTemp(t, Options{Path: path, Durability: storage.DurabilityAsync})
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%03d", i%50)
		var err error
		switch i % 4 {
		case 0, 1:
			err = s.Put(k, []byte(fmt.Sprintf("v%d", i)))
		case 2:
			_, _, err = s.AppendV(nil, k, []byte("+"), 0)
		case 3:
			_, _, err = s.RemoveV(k, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		if file, logical := logOnDisk(t, s, path); file != logical {
			t.Fatalf("after mutation %d: file holds %d bytes, log is %d", i, file, logical)
		}
	}
}

// TestAsyncWriteThroughConcurrent pins the async contract for
// concurrent writers: once every call on the store has returned, every
// acknowledged record is in the file, because a caller that found
// another committing left its record to a committer that drains all
// pending records before it returns.
func TestAsyncWriteThroughConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "async.log")
	s := openTemp(t, Options{Path: path, Durability: storage.DurabilityAsync})
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					if err := s.Put(fmt.Sprintf("w%dk%d", w, i), []byte("value")); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if file, logical := logOnDisk(t, s, path); file != logical {
			t.Fatalf("round %d: file holds %d bytes, log is %d", round, file, logical)
		}
	}
}

// TestGroupCommitBatches keeps group commit honest: 16 concurrent Puts
// on one group-mode store, with the default window, share commits. A
// hand-off that let each caller commit alone would turn group mode
// into sync mode, 16 commits per 16 records.
func TestGroupCommitBatches(t *testing.T) {
	reg := metrics.NewRegistry()
	s := openTemp(t, Options{Durability: storage.DurabilityGroup, Metrics: reg})
	const writers, rounds = 16, 8
	for round := 0; round < rounds; round++ {
		var ready, wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < writers; w++ {
			ready.Add(1)
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ready.Done()
				<-start
				if err := s.Put(fmt.Sprintf("r%dw%d", round, w), []byte("value")); err != nil {
					t.Error(err)
				}
			}(w)
		}
		ready.Wait()
		close(start)
		wg.Wait()
	}
	commits := reg.Counter("zht.storage.wal.commits").Value()
	if limit := int64(rounds * writers / 4); commits >= limit {
		t.Errorf("%d records took %d commits, want fewer than %d (at most 4 records a commit)",
			rounds*writers, commits, limit)
	}
}
