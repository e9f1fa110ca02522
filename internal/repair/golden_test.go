package repair

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"zht/internal/storage"
)

// The repair payload golden files pin the bytes of the leaf stream,
// the one format stamped pairs travel in between copies outside
// replica legs: an OpRepairPull leaf set and a pair set. Old bytes must
// keep decoding to the same values, and today's encoder must reproduce
// them exactly. Regenerate (only for a deliberate format change) with
//
//	go test ./internal/repair -run TestPayloadGolden -update
var update = flag.Bool("update", false, "rewrite the golden files in testdata/")

// goldenPairs covers every shape a pair takes: a stamped pair, an empty
// value (which decodes as nil), an empty key, a zero stamp (a pair
// older than any stamped write) and a stamp of the widest varint.
func goldenPairs() []Pair {
	return []Pair{
		{Key: "key-a", Value: []byte("value-a"), Ver: 1 << 40},
		{Key: "empty-value", Value: nil, Ver: 7},
		{Key: "", Value: []byte{0, 0xff}, Ver: 0},
		{Key: "max-stamp", Value: []byte("v"), Ver: ^uint64(0)},
	}
}

// goldenLeafSet names the first, a middle and the last leaf.
func goldenLeafSet() []int { return []int{0, 5, 63} }

type payloadGolden struct {
	name   string
	enc    []byte
	decode func([]byte) (any, error)
	want   any
}

func payloadGoldens() []payloadGolden {
	return []payloadGolden{
		{"pairs.bin", EncodePairs(goldenPairs()),
			func(b []byte) (any, error) { return DecodePairs(b) }, goldenPairs()},
		{"leafset.bin", EncodeLeafSet(goldenLeafSet()),
			func(b []byte) (any, error) { return DecodeLeafSet(b) }, goldenLeafSet()},
	}
}

func TestPayloadGolden(t *testing.T) {
	for _, c := range payloadGoldens() {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join("testdata", c.name)
			if *update {
				if err := os.WriteFile(path, c.enc, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.decode(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("%s decodes to %+v, want %+v", path, got, c.want)
			}
			if !bytes.Equal(c.enc, golden) {
				t.Errorf("encoder output differs from %s:\n got %x\nwant %x", path, c.enc, golden)
			}
		})
	}
}

// FuzzRepairPayloads feeds arbitrary bytes to the three leaf-stream
// decoders, as a peer's OpDigest response or OpRepairPull request can:
// none may panic, and whatever one accepts must decode to the same
// value again after re-encoding.
func FuzzRepairPayloads(f *testing.F) {
	for _, c := range payloadGoldens() {
		golden, err := os.ReadFile(filepath.Join("testdata", c.name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden)
	}
	f.Add(EncodeDigest(make([]uint64, storage.Leaves)))
	f.Add(EncodePairs(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		if d, err := DecodeDigest(b); err == nil {
			if again, err := DecodeDigest(EncodeDigest(d)); err != nil || !reflect.DeepEqual(again, d) {
				t.Fatalf("digest %x re-decodes as %v, %v", d, again, err)
			}
		}
		if ls, err := DecodeLeafSet(b); err == nil {
			if again, err := DecodeLeafSet(EncodeLeafSet(ls)); err != nil || !reflect.DeepEqual(again, ls) {
				t.Fatalf("leaf set %v re-decodes as %v, %v", ls, again, err)
			}
		}
		if ps, err := DecodePairs(b); err == nil {
			if again, err := DecodePairs(EncodePairs(ps)); err != nil || !reflect.DeepEqual(again, ps) {
				t.Fatalf("pairs %+v re-decode as %+v, %v", ps, again, err)
			}
		}
	})
}
