package figures

import (
	"errors"
	"os"

	"zht/internal/baselines/bdb"
	"zht/internal/baselines/kyoto"
	"zht/internal/novoht"
)

// Small adapters giving the Figure 6 stores one interface. Besides
// set/get/del/close, each adapter offers readProbe: called before a
// phase, it returns a function that, called after it, reports how many
// disk reads the phase performed.

func mkTempDir() (string, error) { return os.MkdirTemp("", "zht-fig") }
func rmTempDir(dir string)       { os.RemoveAll(dir) }

type novohtKV struct{ s *novoht.Store }

func openNovohtKV(o novoht.Options) (novohtKV, error) {
	s, err := novoht.Open(o)
	return novohtKV{s}, err
}

func (k novohtKV) set(key string, v []byte) error { return k.s.Put(key, v) }
func (k novohtKV) get(key string) error {
	_, ok, err := k.s.Get(key)
	if err != nil {
		return err
	}
	if !ok {
		return errors.New("missing key")
	}
	return nil
}
func (k novohtKV) del(key string) error {
	_, _, err := k.s.RemoveV(key, 0)
	return err
}
func (k novohtKV) close() error { return k.s.Close() }

// readProbe: every NoVoHT value is in memory, so a lookup never reads
// the disk.
func (k novohtKV) readProbe() func() uint64 { return func() uint64 { return 0 } }

type kyotoKV struct{ db *kyoto.DB }

func openKyotoKV(path string) (kyotoKV, error) {
	db, err := kyoto.Open(path, 1<<18)
	return kyotoKV{db}, err
}
func (k kyotoKV) set(key string, v []byte) error { return k.db.Set(key, v) }
func (k kyotoKV) get(key string) error {
	_, ok, err := k.db.Get(key)
	if err != nil {
		return err
	}
	if !ok {
		return errors.New("missing key")
	}
	return nil
}
func (k kyotoKV) del(key string) error { return k.db.Delete(key) }
func (k kyotoKV) close() error         { return k.db.Close() }
func (k kyotoKV) readProbe() func() uint64 {
	r0 := k.db.Reads()
	return func() uint64 { return k.db.Reads() - r0 }
}

type bdbKV struct{ db *bdb.DB }

func openBdbKV(path string) (bdbKV, error) {
	db, err := bdb.Open(path, 64)
	return bdbKV{db}, err
}
func (k bdbKV) set(key string, v []byte) error { return k.db.Set([]byte(key), v) }
func (k bdbKV) get(key string) error {
	_, ok, err := k.db.Get([]byte(key))
	if err != nil {
		return err
	}
	if !ok {
		return errors.New("missing key")
	}
	return nil
}
func (k bdbKV) del(key string) error {
	_, err := k.db.Delete([]byte(key))
	return err
}
func (k bdbKV) close() error { return k.db.Close() }
func (k bdbKV) readProbe() func() uint64 {
	r0 := k.db.PageReads()
	return func() uint64 { return k.db.PageReads() - r0 }
}

type mapKV struct{ m map[string][]byte }

func (k mapKV) set(key string, v []byte) error {
	k.m[key] = append([]byte(nil), v...)
	return nil
}
func (k mapKV) get(key string) error {
	if _, ok := k.m[key]; !ok {
		return errors.New("missing key")
	}
	return nil
}
func (k mapKV) del(key string) error {
	delete(k.m, key)
	return nil
}
func (k mapKV) close() error             { return nil }
func (k mapKV) readProbe() func() uint64 { return func() uint64 { return 0 } }
