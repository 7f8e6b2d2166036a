// Command acmon is the fleet health aggregator: it scrapes N acnode
// /metrics endpoints, merges the families fleet-wide, evaluates the
// deployment SLOs (check latency, check availability, revocation
// propagation against Te, per-lane queue drops) with multi-window
// burn-rate alerting, and serves the rollup back out.
//
// Watch a three-node deployment:
//
//	acmon -targets m0=127.0.0.1:7180,m1=127.0.0.1:7181,h0=127.0.0.1:7190 \
//	      -te 60s -every 5s -listen 127.0.0.1:7200 -jsonl fleet.jsonl
//
// The terminal shows a live dashboard (one redraw per scrape; -plain
// for append-only output suitable for logs). The listen address serves:
//
//	/metrics  fleet rollup re-exposition: every node family merged
//	          (counters and histogram buckets summed, gauges folded),
//	          plus wanac_slo_* alert states and wanac_fleet_* meta
//	/health   200 when every target scraped and no burn-rate alert is
//	          firing; 503 with the offender list otherwise
//	/         the dashboard as plain text
//
// With -once, acmon scrapes a single round, prints the dashboard, and
// exits 0 if healthy, 1 otherwise — usable as a deployment health gate
// in scripts.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wanac/internal/fleet"
)

func main() {
	var (
		targets = flag.String("targets", "", "comma-separated name=host:port debug endpoints to scrape (required)")
		te      = flag.Duration("te", time.Minute, "deployment revocation bound Te (reference for the revocation-propagation SLO; 0 disables it)")
		timeout = flag.Duration("timeout", 0, "hosts' query timeout (check-latency SLO threshold; 0 = protocol default)")
		every   = flag.Duration("every", 5*time.Second, "scrape interval")
		listen  = flag.String("listen", "", "serve /metrics, /health and the dashboard on this address")
		jsonl   = flag.String("jsonl", "", "append one JSON health snapshot per scrape to this file")
		once    = flag.Bool("once", false, "scrape one round, print the dashboard, exit 0 iff healthy")
		plain   = flag.Bool("plain", false, "append dashboard blocks instead of redrawing in place")
	)
	flag.Parse()
	if err := run(*targets, *te, *timeout, *every, *listen, *jsonl, *once, *plain); err != nil {
		fmt.Fprintln(os.Stderr, "acmon:", err)
		os.Exit(1)
	}
}

func run(targets string, te, timeout, every time.Duration, listen, jsonl string, once, plain bool) error {
	parsed, err := parseTargets(targets)
	if err != nil {
		return err
	}
	cfg := fleet.Config{Targets: parsed, Te: te, QueryTimeout: timeout, Every: every}
	if jsonl != "" {
		f, err := os.OpenFile(jsonl, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.JSONL = f
	}
	m := fleet.New(cfg)

	if listen != "" {
		l, err := net.Listen("tcp", listen)
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: m.Handler()}
		go srv.Serve(l)
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "acmon: serving http://%s/ (dashboard, /metrics, /health)\n", l.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if once {
		if err := m.ScrapeOnce(ctx); err != nil {
			fmt.Print(m.Dashboard())
			return err
		}
		fmt.Print(m.Dashboard())
		if healthy, _ := m.Healthy(); !healthy {
			return fmt.Errorf("fleet degraded")
		}
		return nil
	}

	_ = m.Run(ctx, func() { draw(m.Dashboard(), plain) }) // ctx.Err(): a signal ended the loop
	fmt.Println()
	return nil
}

// draw renders one dashboard frame: in-place (clear screen + home) by
// default, append-only with -plain.
func draw(frame string, plain bool) {
	if plain {
		fmt.Print(frame)
		return
	}
	fmt.Print("\x1b[H\x1b[2J" + frame)
}

func parseTargets(s string) ([]fleet.Target, error) {
	if s == "" {
		return nil, fmt.Errorf("-targets is required (name=host:port,...)")
	}
	var out []fleet.Target
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" || kv[1] == "" {
			return nil, fmt.Errorf("bad target entry %q (want name=host:port)", part)
		}
		if seen[kv[0]] {
			return nil, fmt.Errorf("duplicate target name %q", kv[0])
		}
		seen[kv[0]] = true
		out = append(out, fleet.Target{Name: kv[0], Addr: kv[1]})
	}
	return out, nil
}
