package chaos

import (
	"os"
	"strconv"
	"testing"
)

// Seeds returns the seeds a randomized test runs. Under plain `go test`
// it returns fixed, the test's pinned seeds. When the environment
// variable ZHT_SEED holds a base seed, it returns the n consecutive
// seeds base, base+1, …, base+n-1 instead, so a fresh base explores
// new runs and the same base replays them; the Makefile's smoke
// targets drive the randomized tests this way. Every seed is logged.
func Seeds(t testing.TB, n int, fixed ...int64) []int64 {
	t.Helper()
	env := os.Getenv("ZHT_SEED")
	if env == "" {
		t.Logf("seeds %v (fixed; ZHT_SEED=<base> runs %d fresh ones)", fixed, n)
		return fixed
	}
	base, err := strconv.ParseInt(env, 10, 64)
	if err != nil {
		t.Fatalf("ZHT_SEED=%q is not an integer: %v", env, err)
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = base + int64(i)
	}
	t.Logf("seeds %v (ZHT_SEED=%d)", seeds, base)
	return seeds
}
