// Command zht-client talks to a running ZHT deployment.
//
// Usage:
//
//	zht-client -seed HOST:PORT insert KEY VALUE
//	zht-client -seed HOST:PORT lookup KEY
//	zht-client -seed HOST:PORT remove KEY
//	zht-client -seed HOST:PORT append KEY VALUE
//	zht-client -seed HOST:PORT cas KEY OLD NEW
//	zht-client -seed HOST:PORT members
//	zht-client -seed HOST:PORT bench -ops N
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"zht/internal/core"
	"zht/internal/figures"
	"zht/internal/transport"
	"zht/internal/wire"
)

func main() {
	var (
		seed       = flag.String("seed", "127.0.0.1:5500", "address of any live instance")
		proto      = flag.String("proto", "tcp", "transport: tcp or udp")
		partitions = flag.Int("partitions", 1024, "deployment partition count")
		replicas   = flag.Int("replicas", 2, "deployment replica count")
		ops        = flag.Int("ops", 10000, "operations for the bench subcommand")
		levelName  = flag.String("level", "", "consistency level for this op: one, quorum, all (empty = the deployment default)")
	)
	flag.Parse()
	level, err := wire.ParseConsistency(*levelName)
	if err != nil {
		log.Fatalf("-level: %v", err)
	}
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	var caller transport.Caller
	if *proto == "udp" {
		caller = transport.NewUDPClient(transport.UDPClientOptions{})
	} else {
		caller = transport.NewTCPClient(transport.TCPClientOptions{ConnCache: true})
	}
	defer caller.Close()
	cfg := core.Config{NumPartitions: *partitions, Replicas: *replicas}
	c, err := core.NewClientFromSeed(cfg, *seed, caller)
	if err != nil {
		log.Fatalf("connect: %v", err)
	}

	switch args[0] {
	case "insert":
		need(args, 3)
		die(c.InsertWith(args[1], []byte(args[2]), level))
	case "lookup":
		need(args, 2)
		v, err := c.LookupWith(args[1], level)
		if errors.Is(err, core.ErrNotFound) {
			fmt.Println("(not found)")
			os.Exit(1)
		}
		die(err)
		fmt.Printf("%s\n", v)
	case "remove":
		need(args, 2)
		die(c.RemoveWith(args[1], level))
	case "append":
		need(args, 3)
		die(c.AppendWith(args[1], []byte(args[2]), level))
	case "cas":
		need(args, 4)
		cur, err := c.Cas(args[1], []byte(args[2]), []byte(args[3]))
		if errors.Is(err, core.ErrCasMismatch) {
			fmt.Printf("mismatch; current value: %s\n", cur)
			os.Exit(1)
		}
		die(err)
	case "members":
		t := c.Table()
		fmt.Printf("epoch %d, %d partitions, %d instances:\n", t.Epoch, t.NumPartitions, len(t.Instances))
		for i, in := range t.Instances {
			fmt.Printf("  %-12s %-22s %-10s %s (%d partitions)\n",
				in.ID, in.Addr, t.Status[i], in.Node, len(t.PartitionsOf(i)))
		}
	case "bench":
		// The paper's micro-benchmark (§IV.A) with this one client.
		st, err := figures.RunAllToAll([]*core.Client{c}, *ops, 1, nil)
		die(err)
		fmt.Printf("%d ops in %s: %.3f ms/op, %.0f ops/s\n",
			st.Ops, st.Elapsed.Round(time.Millisecond),
			float64(st.Elapsed.Nanoseconds())/1e6/float64(st.Ops), st.Throughput())
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n", args[0])
		os.Exit(2)
	}
}

func need(args []string, n int) {
	if len(args) < n {
		fmt.Fprintf(os.Stderr, "%s needs %d arguments\n", args[0], n-1)
		os.Exit(2)
	}
}

func die(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
