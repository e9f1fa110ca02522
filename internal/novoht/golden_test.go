package novoht

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The log golden files pin NoVoHT's on-disk record format. Each file
// holds the records one scripted op sequence writes. The test checks
// that the file holds the record kinds it claims, that it replays to a
// stated map of values and versions whose maintained digest equals
// storage.DigestOf, and that today's encoder, running the script on a
// fresh log, writes the same bytes. The rule: old bytes keep replaying.
//
// log-kinds.golden and log-kinds-torn.golden were written before
// AppendV existed. They hold all five record kinds that tree wrote; the
// torn one ends in a record cut short by a crash. They are never
// regenerated. log-appendv.golden adds recAppendV; rewrite it (only for
// a deliberate format change) with
//
//	go test ./internal/novoht -run TestLogGolden -update
var update = flag.Bool("update", false, "rewrite log-appendv.golden in testdata/")

// pair is a replayed value with its version stamp.
type pair struct {
	val string
	ver uint64
}

type logGolden struct {
	file   string
	script func(s *Store) error
	torn   bool   // the file's last record is cut 3 bytes short
	kinds  []byte // the record types the file holds, in first-seen order
	want   map[string]pair
}

// kindsScript writes every pre-AppendV record kind; torn adds one more
// record, which the golden file holds cut short.
func kindsScript(torn bool) func(s *Store) error {
	return func(s *Store) error {
		return firstErr(
			s.Put("a", []byte("alpha")),
			s.Put("b", []byte("bravo")),
			appendErr(s.AppendV(nil, "a", []byte("+1"), 0)),
			appendErr(s.AppendV(nil, "c", []byte("new"), 0)),
			putErr(s.PutV("d", []byte("delta"), 100)),
			appendErr(s.AppendV(nil, "d", []byte("+x"), 0)), // keeps version 100
			stampErr(s.RemoveV("b", 0)),
			putErr(s.PutV("e", []byte("echo"), 200)),
			boolErr(s.RemoveLWW("e", 300)),
			putErr(s.PutV("f", []byte("old"), 500)),
			// The tree that wrote this file applied an older stamp over
			// a newer one. The store now stamps such a write above the
			// stored one, so the script logs the record alone; replay
			// keeps the newest version.
			logRecord(s, recPut, "f", []byte("stale"), 400),
			putErr(s.PutV("g", []byte("golf"), 50)),
			s.Put("g", []byte("x")),
			s.Put("h", nil),
			boolErr(s.RemoveLWW("h", 7)),
			putErr(s.PutV("i", []byte("india"), 1<<40)),
			func() error {
				if torn {
					return putErr(s.PutV("z", []byte("torn"), 900))
				}
				return nil
			}(),
		)
	}
}

// appendVScript writes the versioned append record beside the kinds an
// instance writes today.
func appendVScript(s *Store) error {
	return firstErr(
		putErr(s.PutV("a", []byte("alpha"), 10)),
		appendErr(s.AppendV(nil, "a", []byte("+1"), 11)),
		appendErr(s.AppendV(nil, "n", []byte("new"), 12)),
		s.Put("l", []byte("legacy")),
		appendErr(s.AppendV(nil, "l", []byte("+v"), 13)),
		putErr(s.PutV("d", []byte("delta"), 20)),
		appendErr(s.AppendV(nil, "d", []byte("+0"), 0)), // keeps version 20
		casErr(s.CasV("a", []byte("alpha+1"), []byte("swapped"), 14)),
		stampErr(s.PutIfAbsentV("p", []byte("pia"), 15, nil)),
		stampErr(s.RemoveV("n", 16)),
		appendErr(s.AppendV(nil, "e", []byte("solo"), 17)),
	)
}

func logGoldens() []logGolden {
	kindsWant := map[string]pair{
		"a": {"alpha+1", 0}, "c": {"new", 0}, "d": {"delta+x", 100},
		"f": {"old", 500}, "g": {"x", 0}, "i": {"india", 1 << 40},
	}
	kinds := []byte{recPut, recAppend, recPutV, recRemove, recRemoveV}
	return []logGolden{
		{file: "log-kinds.golden", script: kindsScript(false), kinds: kinds, want: kindsWant},
		{file: "log-kinds-torn.golden", script: kindsScript(true), torn: true, kinds: kinds, want: kindsWant},
		{file: "log-appendv.golden", script: appendVScript,
			kinds: []byte{recPutV, recAppendV, recPut, recAppend, recRemoveV},
			want: map[string]pair{
				"a": {"swapped", 14}, "l": {"legacy+v", 13}, "d": {"delta+0", 20},
				"p": {"pia", 15}, "e": {"solo", 17},
			}},
	}
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// logRecord submits one record to s's log without applying it.
func logRecord(s *Store, typ byte, key string, val []byte, ver uint64) error {
	_, _, err := s.appendRecord(typ, key, val, ver)
	return err
}

func putErr(_ uint64, err error) error                   { return err }
func appendErr(_ []byte, _ uint64, err error) error      { return err }
func boolErr(_ bool, err error) error                    { return err }
func stampErr(_ bool, _ uint64, err error) error         { return err }
func casErr(_ bool, _ []byte, _ uint64, err error) error { return err }
func goldenPath(file string) string                      { return filepath.Join("testdata", file) }
func readGolden(t testing.TB, file string) []byte {
	t.Helper()
	b, err := os.ReadFile(goldenPath(file))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// writeScript runs g's script on a fresh log and returns the log's
// bytes, cut like the golden file when it is torn.
func writeScript(t *testing.T, g logGolden) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "script.log")
	s, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.script(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.torn {
		b = b[:len(b)-3]
	}
	return b
}

// recordKinds lists the record types in log in first-seen order, and
// whether the log ends in a torn record.
func recordKinds(log []byte) (kinds []byte, torn bool) {
	r := bufio.NewReader(bytes.NewReader(log))
	seen := map[byte]bool{}
	for off := int64(0); ; {
		typ, _, _, _, n, err := readRecord(r, int64(len(log))-off)
		if errors.Is(err, io.EOF) {
			return kinds, false
		}
		if err != nil {
			return kinds, true
		}
		off += int64(n)
		if !seen[typ] {
			seen[typ] = true
			kinds = append(kinds, typ)
		}
	}
}

// replayGolden opens a copy of log (Open truncates a torn tail, and
// the golden file must stay as it is) and returns its contents.
func replayGolden(t *testing.T, log []byte) map[string]pair {
	t.Helper()
	path := filepath.Join(t.TempDir(), "replay.log")
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkDigest(t, s, "after replay")
	return pairsOf(t, s)
}

// pairsOf returns s's contents.
func pairsOf(t *testing.T, s *Store) map[string]pair {
	t.Helper()
	got := map[string]pair{}
	if err := s.ForEachV(func(k string, v []byte, ver uint64) error {
		got[k] = pair{string(v), ver}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestLogGolden(t *testing.T) {
	for _, g := range logGoldens() {
		t.Run(g.file, func(t *testing.T) {
			if *update && g.file == "log-appendv.golden" {
				if err := os.WriteFile(goldenPath(g.file), writeScript(t, g), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			log := readGolden(t, g.file)
			if kinds, torn := recordKinds(log); !bytes.Equal(kinds, g.kinds) || torn != g.torn {
				t.Fatalf("record kinds %v (torn %v), want %v (torn %v)", kinds, torn, g.kinds, g.torn)
			}
			if got := replayGolden(t, log); !reflect.DeepEqual(got, g.want) {
				t.Fatalf("replayed\n %v\nwant %v", got, g.want)
			}
			if got := writeScript(t, g); !bytes.Equal(got, log) {
				t.Fatalf("the script now writes\n %x\nthe golden file holds\n %x", got, log)
			}
		})
	}
}

// FuzzReplay opens arbitrary bytes as a log. Replay must either fail
// with an error or recover a store whose maintained digest equals the
// digest rebuilt from its contents; it must never panic, and a record
// header claiming more bytes than the log holds must not make it
// allocate them.
func FuzzReplay(f *testing.F) {
	for _, g := range logGoldens() {
		f.Add(readGolden(f, g.file))
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, log []byte) {
		tmp, err := os.CreateTemp(dir, "replay-*.log")
		if err != nil {
			t.Fatal(err)
		}
		defer os.Remove(tmp.Name())
		_, err = tmp.Write(log)
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{Path: tmp.Name(), CompactEvery: -1})
		if err != nil {
			return
		}
		defer s.Close()
		checkDigest(t, s, "after replaying fuzzed bytes")
	})
}
