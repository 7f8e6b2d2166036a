package main

import (
	"fmt"
	"net"
	"testing"
	"time"
)

// freeAddr reserves an ephemeral port and releases it, returning the
// address. Only addresses that must be known before a node starts use it:
// manager listen addresses, which every peer list names, and peers that
// are deliberately never started. Everything else binds port 0 and reports
// the address it got.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// cluster is a live two-manager/one-host deployment over TCP with debug
// endpoints, the shared fixture for the live tests.
type cluster struct {
	runtimes []*runtime // m0, m1, h0
	debug    []string   // debug addresses, same order
}

func (c *cluster) host() *runtime { return c.runtimes[2] }

// debugAddr returns the debug address of node id (m0, m1 or h0).
func (c *cluster) debugAddr(id string) string {
	return c.debug[map[string]int{"m0": 0, "m1": 1, "h0": 2}[id]]
}

// close stops every node; later calls do nothing.
func (c *cluster) close() {
	for _, rt := range c.runtimes {
		rt.Close()
	}
	c.runtimes = nil
}

// startCluster boots m0, m1 and h0 on loopback — check quorum C=2, alice
// seeded with use and root with manage — each with a debug endpoint on a
// port of its own choosing. tune, when non-nil, adjusts each node's
// config before it starts. The nodes close when the test ends, or earlier
// with c.close.
func startCluster(t *testing.T, tune func(*nodeConfig)) *cluster {
	t.Helper()
	m0, m1 := freeAddr(t), freeAddr(t)
	c := &cluster{}
	t.Cleanup(c.close)
	for _, n := range []struct {
		id, listen, role string
	}{
		{"m0", m0, "manager"},
		{"m1", m1, "manager"},
		{"h0", "127.0.0.1:0", "host"},
	} {
		cfg := nodeConfig{
			id: n.id, listen: n.listen, role: n.role, app: "stocks",
			peers: fmt.Sprintf("m0=%s,m1=%s", m0, m1), c: 2, r: 3,
			te: time.Minute, timeout: 2 * time.Second,
			trans: "tcp", manage: "root", use: "alice",
			debugAddr: "127.0.0.1:0",
		}
		if tune != nil {
			tune(&cfg)
		}
		rt, err := startNode(cfg)
		if err != nil {
			t.Fatalf("start %s: %v", n.id, err)
		}
		c.runtimes = append(c.runtimes, rt)
		c.debug = append(c.debug, rt.debugAddr)
	}
	return c
}
