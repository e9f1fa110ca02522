package loadgen

import (
	"strings"
	"testing"
)

func TestReproducible(t *testing.T) {
	mk := func() []Op {
		g, err := New(Options{Mix: Mix{Insert: 1, Lookup: 1, Remove: 1}, Dist: Uniform{Keys: 1000}, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return g.Stream(500)
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Key != b[i].Key {
			t.Fatalf("stream diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestMixProportions(t *testing.T) {
	g, err := New(Options{Mix: Mix{Insert: 3, Lookup: 1}, Dist: Uniform{Keys: 100}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[OpKind]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		counts[g.Next().Kind]++
	}
	insFrac := float64(counts[OpInsert]) / n
	if insFrac < 0.70 || insFrac > 0.80 {
		t.Errorf("insert fraction = %.2f, want ≈0.75", insFrac)
	}
	if counts[OpRemove] != 0 || counts[OpAppend] != 0 {
		t.Errorf("zero-weight kinds appeared: %v", counts)
	}
}

func TestValuesOnlyForMutations(t *testing.T) {
	g, _ := New(Options{Mix: Mix{Insert: 1, Lookup: 1, Remove: 1}, Dist: Uniform{Keys: 10}, Seed: 2})
	for i := 0; i < 200; i++ {
		op := g.Next()
		switch op.Kind {
		case OpInsert, OpAppend:
			if len(op.Value) != 132 {
				t.Fatalf("%v carries %d-byte value, want 132 (paper default)", op.Kind, len(op.Value))
			}
		default:
			if op.Value != nil {
				t.Fatalf("%v carries a value", op.Kind)
			}
		}
	}
}

func TestKeyPrefixAndValueLen(t *testing.T) {
	g, _ := New(Options{Mix: Mix{Insert: 1}, Dist: Uniform{Keys: 5}, KeyPrefix: "c7/", ValueLen: 64})
	op := g.Next()
	if !strings.HasPrefix(op.Key, "c7/") {
		t.Errorf("key %q missing prefix", op.Key)
	}
	if len(op.Value) != 64 {
		t.Errorf("value len %d", len(op.Value))
	}
}

func TestZipfSkew(t *testing.T) {
	g, err := New(Options{Mix: Mix{Lookup: 1}, Dist: Zipf{Keys: 10000, S: 1.5}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ops := g.Stream(20000)
	hot := HotKeyFraction(ops, 10)
	want := TheoreticalZipfMass(10000, 10, 1.5)
	if hot < want*0.5 {
		t.Errorf("top-10 keys draw %.2f of traffic, theory says ≈%.2f", hot, want)
	}
	// Uniform traffic must NOT be skewed like that.
	gu, _ := New(Options{Mix: Mix{Lookup: 1}, Dist: Uniform{Keys: 10000}, Seed: 3})
	uniHot := HotKeyFraction(gu.Stream(20000), 10)
	if uniHot > hot/3 {
		t.Errorf("uniform top-10 fraction %.3f too close to zipf %.3f", uniHot, hot)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(Options{Mix: Mix{Insert: 1, Lookup: 1, Remove: 1}}); err == nil {
		t.Error("missing distribution accepted")
	}
	if _, err := New(Options{Dist: Uniform{Keys: 10}}); err == nil {
		t.Error("empty mix accepted")
	}
	if _, err := New(Options{Mix: Mix{Insert: 1, Lookup: 1, Remove: 1}, Dist: Uniform{Keys: 0}}); err == nil {
		t.Error("empty keyspace accepted")
	}
}

func TestOpKindStrings(t *testing.T) {
	for _, k := range []OpKind{OpInsert, OpLookup, OpRemove, OpAppend} {
		if k.String() == "" || strings.HasPrefix(k.String(), "op(") {
			t.Errorf("kind %d has no name", k)
		}
	}
}
