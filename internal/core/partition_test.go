package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zht/internal/novoht"
)

// beginMigration is the migration tests' form of
// partition.beginMigration: it reports whether the migration began.
func (in *Instance) beginMigration(p int) bool { return in.part(p).beginMigration() != nil }

// TestPartitionConcurrentFirstUse races many goroutines on one fresh
// partition's one lock: every store caller gets the same store, a
// migration is begun exactly once until it completes, and installs
// racing note and covers never land a pair stamped at or below a
// remove noted before the install began.
func TestPartitionConcurrentFirstUse(t *testing.T) {
	d, _, _ := startDeployment(t, Config{NumPartitions: 16, RetryBase: time.Millisecond}, 1)
	in := d.Instance(0)
	const p, workers, n = 2, 16, 256
	pt := in.part(p)
	if in.storeIfPresent(p) != nil {
		t.Fatal("partition already has a store")
	}
	race := func(f func(w int)) {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				f(w)
			}()
		}
		close(start)
		wg.Wait()
	}

	// Keys of p: each removed key is noted at its stamp and only then
	// offered to install; each kept key is installed once.
	var removed, kept []string
	for i := 0; len(kept) < n; i++ {
		if k := fmt.Sprintf("pt-%d", i); in.partitionOf(k) != p {
			continue
		} else if len(removed) < n {
			removed = append(removed, k)
		} else {
			kept = append(kept, k)
		}
	}
	stamps := make([]uint64, n)
	for i := range stamps {
		stamps[i] = in.clock.Next()
	}
	noted := make([]atomic.Bool, n)
	stores := make([]*novoht.Store, workers)
	var wins atomic.Int32
	race(func(w int) {
		s, err := in.store(p)
		if err != nil {
			t.Error(err)
			return
		}
		stores[w] = s
		if pt.beginMigration() != nil {
			wins.Add(1)
		}
		for i := w; i < n; i += workers {
			pt.note(removed[i], stamps[i])
			noted[i].Store(true)
			// Another worker's key, at its remove's stamp or just below.
			if j := (i*7 + 3) % n; noted[j].Load() {
				if ok, err := in.install(pt, removed[j], []byte("stale"), stamps[j]-uint64(i%2)); ok || err != nil {
					t.Errorf("install of %s at or below its noted remove: applied %v, err %v", removed[j], ok, err)
				}
			}
			if ok, err := in.install(pt, kept[i], []byte("v"), in.clock.Next()); !ok || err != nil {
				t.Errorf("install of %s: applied %v, err %v", kept[i], ok, err)
			}
		}
	})
	s := in.storeIfPresent(p)
	for w, ws := range stores {
		if ws == nil || ws != s {
			t.Fatalf("worker %d got store %p, partition holds %p", w, ws, s)
		}
	}
	if got := wins.Load(); got != 1 {
		t.Fatalf("%d of %d racing beginMigration calls won, want 1", got, workers)
	}
	for i := range removed {
		if _, found, _ := s.Get(removed[i]); found {
			t.Errorf("removed key %s was installed", removed[i])
		}
		if _, found, _ := s.Get(kept[i]); !found {
			t.Errorf("kept key %s missing", kept[i])
		}
	}

	// Once the migration completes, the next one is again won once.
	for round := 0; round < 3; round++ {
		in.completeMigration(p, "", false)
		wins.Store(0)
		race(func(int) {
			if pt.beginMigration() != nil {
				wins.Add(1)
			}
		})
		if got := wins.Load(); got != 1 {
			t.Fatalf("round %d: %d of %d racing beginMigration calls won, want 1", round, got, workers)
		}
	}
	in.completeMigration(p, "", false)
}
