package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"

	"zht/internal/core"
)

// gatewaySession is one lockstep memcached text-protocol connection: the
// client an unmodified cache user would bring. Only the commands the
// gateway workload's mix needs are spoken.
type gatewaySession struct {
	conn net.Conn
	r    *bufio.Reader
	out  []byte
}

var errNotInMix = errors.New("benchmark: op not spoken by the gateway session")

func dialGateway(addr string) (*gatewaySession, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &gatewaySession{conn: conn, r: bufio.NewReader(conn)}, nil
}

func (s *gatewaySession) close() error { return s.conn.Close() }

// line reads one reply line without its CRLF; the result is valid until
// the next read.
func (s *gatewaySession) line() ([]byte, error) {
	l, err := s.r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(l, "\r\n"), nil
}

func (s *gatewaySession) lookup(key string) ([]byte, error) {
	s.out = append(append(append(s.out[:0], "get "...), key...), "\r\n"...)
	if _, err := s.conn.Write(s.out); err != nil {
		return nil, err
	}
	l, err := s.line()
	if err != nil {
		return nil, err
	}
	if bytes.Equal(l, []byte("END")) {
		return nil, core.ErrNotFound
	}
	// VALUE <key> <flags> <bytes>
	f := bytes.Fields(l)
	if len(f) != 4 || string(f[0]) != "VALUE" || string(f[1]) != key {
		return nil, fmt.Errorf("get %s: reply %q", key, l)
	}
	n, err := strconv.Atoi(string(f[3]))
	if err != nil || n < 0 {
		return nil, fmt.Errorf("get %s: reply %q", key, l)
	}
	val := make([]byte, n+2)
	if _, err := io.ReadFull(s.r, val); err != nil {
		return nil, err
	}
	if l, err = s.line(); err != nil {
		return nil, err
	}
	if !bytes.Equal(l, []byte("END")) {
		return nil, fmt.Errorf("get %s: trailer %q", key, l)
	}
	return val[:n], nil
}

func (s *gatewaySession) insert(key string, val []byte) error {
	s.out = append(append(s.out[:0], "set "...), key...)
	s.out = append(s.out, " 0 "...)
	s.out = strconv.AppendInt(s.out, int64(cacheTTL.Seconds()), 10)
	s.out = append(s.out, ' ')
	s.out = strconv.AppendInt(s.out, int64(len(val)), 10)
	s.out = append(append(append(s.out, "\r\n"...), val...), "\r\n"...)
	// One write, so the command and its data block reach the gateway
	// together.
	if _, err := s.conn.Write(s.out); err != nil {
		return err
	}
	l, err := s.line()
	if err != nil {
		return err
	}
	if !bytes.Equal(l, []byte("STORED")) {
		return fmt.Errorf("set %s: reply %q", key, l)
	}
	return nil
}

func (s *gatewaySession) remove(string) error         { return errNotInMix }
func (s *gatewaySession) append(string, []byte) error { return errNotInMix }
func (s *gatewaySession) batch([]core.BatchOp) ([]core.BatchResult, error) {
	return nil, errNotInMix
}
