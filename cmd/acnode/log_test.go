package main

// The process log on the check hot path: acnode's tracer chain ends in
// logTracer, so whatever it does per event a production host does twice per
// cached check.

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wanac/internal/core"
	"wanac/internal/trace"
	"wanac/internal/wire"
)

// lockedBuffer is a log destination the node's goroutines may share.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) take() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.b.String()
	l.b.Reset()
	return s
}

// captureLog points the process log at a buffer for the rest of the test.
func captureLog(t *testing.T, level slog.Level) *lockedBuffer {
	t.Helper()
	prev := slog.Default()
	t.Cleanup(func() { slog.SetDefault(prev) })
	buf := &lockedBuffer{}
	slog.SetDefault(slog.New(slog.NewTextHandler(buf, &slog.HandlerOptions{Level: level})))
	return buf
}

func TestWarmCheckLogsNothingAtInfo(t *testing.T) {
	if testing.Short() {
		t.Skip("live sockets")
	}
	buf := captureLog(t, slog.LevelInfo)
	m0 := freeAddr(t)
	var runtimes []*runtime
	for _, n := range []struct{ id, listen, role string }{
		{"m0", m0, "manager"},
		{"h0", "127.0.0.1:0", "host"},
	} {
		rt, err := startNode(nodeConfig{
			id: n.id, listen: n.listen, role: n.role, app: "stocks",
			peers: fmt.Sprintf("m0=%s", m0), c: 1, r: 3, te: time.Minute,
			timeout: 2 * time.Second, trans: "tcp", use: "alice",
		})
		if err != nil {
			t.Fatalf("start %s: %v", n.id, err)
		}
		defer rt.Close()
		runtimes = append(runtimes, rt)
	}
	host := runtimes[1].host
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if d, err := host.CheckContext(ctx, "stocks", "alice", wire.RightUse); err != nil || !d.Allowed {
		t.Fatalf("warm-up check = %+v, %v", d, err)
	}
	buf.take() // start-up lines

	hits := 0
	count := func(d core.Decision) {
		if d.CacheHit {
			hits++
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		host.Check("stocks", "alice", wire.RightUse, count)
	})
	if hits < 200 {
		t.Fatalf("%d of the checks hit the cache, want all of them", hits)
	}
	if allocs > 0 {
		t.Errorf("warm check on an acnode host allocates %.1f objects/op, budget is 0", allocs)
	}
	if out := buf.take(); out != "" {
		t.Errorf("warm checks at -log.level=info wrote to the log:\n%s", out)
	}
}

func TestLogTracerLevels(t *testing.T) {
	for typ := trace.EventType(1); typ.String() != fmt.Sprintf("event-%d", typ); typ++ {
		wantInfo := false
		switch name := typ.String(); {
		case strings.HasPrefix(name, "update-"), name == "revoke-applied",
			name == "frozen", name == "unfrozen", name == "synced", name == "te-adapted":
			wantInfo = true
		}
		e := trace.Event{Node: "n", Type: typ, App: "a", User: "u", Trace: 7, Word: trace.WordForced, Peer: "p", Num: 1}
		note := "note=" + e.Note()
		if strings.ContainsAny(e.Note(), " =") {
			note = "note=" + strconv.Quote(e.Note())
		}

		buf := captureLog(t, slog.LevelInfo)
		logTracer{}.Emit(e)
		if got := buf.take() != ""; got != wantInfo {
			t.Errorf("%s logged at info = %v, want %v", typ, got, wantInfo)
		}

		buf = captureLog(t, slog.LevelDebug)
		logTracer{}.Emit(e)
		out := buf.take()
		for _, want := range []string{"type=" + typ.String(), "node=n", "app=a", "user=u", "trace=0000000000000007", note} {
			if !strings.Contains(out, want) {
				t.Errorf("%s at debug: line %q lacks %q", typ, out, want)
			}
		}
	}
}
