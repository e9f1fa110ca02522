// Package cmd_test builds the real binaries and drives a two-server
// TCP deployment through the CLI — the closest thing to the paper's
// operational story that fits in a test.
package cmd_test

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func buildTool(t *testing.T, dir, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestServerClientEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	server := buildTool(t, dir, "./cmd/zht-server")
	client := buildTool(t, dir, "./cmd/zht-client")

	a0, a1 := freePort(t), freePort(t)
	peers := a0 + "," + a1
	var procs []*exec.Cmd
	for i, addr := range []string{a0, a1} {
		dataDir := filepath.Join(dir, fmt.Sprintf("data%d", i))
		os.MkdirAll(dataDir, 0o755)
		cmd := exec.Command(server, "-peers", peers, "-index", fmt.Sprint(i), "-data", dataDir, "-partitions", "64")
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		procs = append(procs, cmd)
		_ = addr
	}
	defer func() {
		for _, p := range procs {
			p.Process.Kill()
			p.Wait()
		}
	}()
	// Wait for both servers to accept connections.
	for _, addr := range []string{a0, a1} {
		deadline := time.Now().Add(10 * time.Second)
		for {
			c, err := net.Dial("tcp", addr)
			if err == nil {
				c.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("server %s never came up", addr)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	run := func(args ...string) string {
		t.Helper()
		full := append([]string{"-seed", a0, "-partitions", "64"}, args...)
		out, err := exec.Command(client, full...).CombinedOutput()
		if err != nil {
			t.Fatalf("zht-client %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	run("insert", "/greeting", "hello")
	if got := strings.TrimSpace(run("lookup", "/greeting")); got != "hello" {
		t.Errorf("lookup = %q", got)
	}
	run("append", "/greeting", " world")
	if got := strings.TrimSpace(run("lookup", "/greeting")); got != "hello world" {
		t.Errorf("lookup after append = %q", got)
	}
	members := run("members")
	if !strings.Contains(members, "2 instances") {
		t.Errorf("members output:\n%s", members)
	}
	run("remove", "/greeting")
	// Removed keys return non-zero: expect the error path.
	out, err := exec.Command(client, "-seed", a0, "-partitions", "64", "lookup", "/greeting").CombinedOutput()
	if err == nil {
		t.Errorf("lookup of removed key succeeded: %s", out)
	}
	// Flags precede the subcommand (standard flag package parsing).
	benchOut, err := exec.Command(client, "-seed", a0, "-partitions", "64", "-ops", "200", "bench").CombinedOutput()
	if err != nil {
		t.Fatalf("bench: %v\n%s", err, benchOut)
	}
	if !strings.Contains(string(benchOut), "600 ops") || !strings.Contains(string(benchOut), "ops/s") {
		t.Errorf("bench output: %s", benchOut)
	}

	// Dynamic join through the CLI: a third server joins via -join
	// and the member list grows to 3.
	a2 := freePort(t)
	joiner := exec.Command(server, "-join", a0, "-addr", a2, "-partitions", "64")
	joinOut, err := joiner.StdoutPipe()
	_ = joinOut
	if err != nil {
		t.Fatal(err)
	}
	if err := joiner.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		joiner.Process.Kill()
		joiner.Wait()
	}()
	deadline := time.Now().Add(15 * time.Second)
	for {
		members := run("members")
		if strings.Contains(members, "3 instances") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("joiner never appeared in membership:\n%s", members)
		}
		time.Sleep(100 * time.Millisecond)
	}
	// Data is still fully reachable after the live join.
	run("insert", "/post-join", "ok")
	if got := strings.TrimSpace(run("lookup", "/post-join")); got != "ok" {
		t.Errorf("lookup after join = %q", got)
	}
}

// TestBenchCLI runs zht-bench's §IV.A micro-benchmark twice, batched
// over loopback TCP and in process behind the degraded chaos network,
// and checks each run's summary line.
func TestBenchCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bench := buildTool(t, t.TempDir(), "./cmd/zht-bench")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-nodes", "2", "-ops", "50", "-transport", "tcp-cache", "-batch", "8"}, "throughput"},
		{[]string{"-nodes", "2", "-ops", "50", "-chaos", "7", "-metrics"}, "chaos seed=7:"},
	} {
		out, err := exec.Command(bench, tc.args...).CombinedOutput()
		if err != nil {
			t.Fatalf("zht-bench %v: %v\n%s", tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("zht-bench %v: no %q line:\n%s", tc.args, tc.want, out)
		}
	}
}
