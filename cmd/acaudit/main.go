// Command acaudit is the forensic command. It answers "why was this check
// allowed (or denied)?" from recorded evidence: for each selected decision,
// the decision record with its evidence (the cache entry and vouching
// managers, the quorum round and granting set, or the fallback rule and
// exhausted attempts), the manager responses sharing the check's trace ID,
// and the flight records of the same check. With -timeline it
// answers "what happened, in order?" instead: the flight dumps merged, their
// drifting clocks aligned (internal/flight's Align), as one causal timeline.
//
//	acaudit h0-audit.jsonl m0-audit.jsonl m1-audit.jsonl
//	acaudit -user alice -last 1 127.0.0.1:7180 127.0.0.1:7280
//	acaudit -trace 00000000000000a3 h0-audit.jsonl h0-flight.jsonl m0-flight.jsonl
//	acaudit -at 12:04:05 -window 2s h0-audit.jsonl
//	acaudit -timeline -html tl.html -merged all.jsonl 127.0.0.1:7180 m0-flight.jsonl
//
// An argument naming an existing file is a file, its kind sniffed from its
// first line: an {"audit":1,...} or {"flight":1,...} dump header, or a
// record with a "reason" key (a headerless -audit.jsonl stream); any other
// file is an error. Any other argument is a node's -debug.addr
// (host:port or a URL): it contributes the node's /debug/audit dump and,
// unless the node answers 404, its /debug/flight dump.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"wanac/internal/audit"
	"wanac/internal/flight"
)

// options are acaudit's flags beyond the decision filter.
type options struct {
	timeline bool   // render the flight timeline instead of explanations
	html     string // also write the flight timeline as HTML here
	merged   string // also write the merged flight dump here
}

func main() {
	var (
		app    = flag.String("app", "", "only decisions for this application")
		user   = flag.String("user", "", "only decisions for this user")
		node   = flag.String("node", "", "only decisions made by this host")
		traceS = flag.String("trace", "", "only the decision with this trace ID (hex)")
		atS    = flag.String("at", "", "only decisions near this time (15:04:05[.000] or RFC3339)")
		window = flag.Duration("window", time.Second, "half-width of the -at match window")
		last   = flag.Int("last", 0, "only the most recent N matching decisions (0 = all)")
		o      options
	)
	flag.BoolVar(&o.timeline, "timeline", false, "render the aligned, merged flight timeline instead of explanations")
	flag.StringVar(&o.html, "html", "", "also write the flight timeline as a self-contained HTML page to this file")
	flag.StringVar(&o.merged, "merged", "", "also write the merged flight dump (versioned JSONL) to this file")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: acaudit [-timeline] [-html out.html] [-merged out.jsonl] [filters] (dump.jsonl | debug-addr)...")
		flag.PrintDefaults()
	}
	flag.Parse()

	f := audit.Filter{App: *app, User: *user, Node: *node, Window: *window, Last: *last}
	if *traceS != "" {
		tr, err := strconv.ParseUint(*traceS, 16, 64)
		if err != nil {
			fatal(fmt.Errorf("bad -trace %q: %w", *traceS, err))
		}
		f.Trace = tr
	}
	if *atS != "" {
		at, err := parseAt(*atS)
		if err != nil {
			fatal(err)
		}
		f.At = at
	}
	if err := run(os.Stdout, f, o, flag.Args()); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "acaudit:", err)
	os.Exit(1)
}

// parseAt accepts a clock time (today's date assumed, matching the dump's
// 15:04:05.000 rendering) or a full RFC3339 stamp.
func parseAt(s string) (time.Time, error) {
	for _, layout := range []string{time.RFC3339Nano, time.RFC3339} {
		if t, err := time.Parse(layout, s); err == nil {
			return t, nil
		}
	}
	for _, layout := range []string{"15:04:05.000", "15:04:05"} {
		if t, err := time.Parse(layout, s); err == nil {
			now := time.Now()
			return time.Date(now.Year(), now.Month(), now.Day(),
				t.Hour(), t.Minute(), t.Second(), t.Nanosecond(), time.Local), nil
		}
	}
	return time.Time{}, fmt.Errorf("bad -at %q (want 15:04:05[.000] or RFC3339)", s)
}

func run(w io.Writer, f audit.Filter, o options, args []string) error {
	if len(args) == 0 {
		return errors.New("no inputs given (dump files or node debug addresses)")
	}
	var in inputs
	for _, arg := range args {
		if err := in.add(arg); err != nil {
			return err
		}
	}
	var fl *flight.Dump
	if len(in.flights) > 0 {
		fl = flight.Merge(in.flights...)
	} else if o.timeline || o.html != "" || o.merged != "" {
		return errors.New("no flight dumps among the inputs")
	}
	if o.merged != "" {
		if err := writeFile(o.merged, fl.Write); err != nil {
			return err
		}
	}
	if o.html != "" {
		if err := writeFile(o.html, flight.BuildTimeline(fl).WriteHTML); err != nil {
			return err
		}
	}
	if o.timeline {
		return flight.BuildTimeline(fl).WriteText(w)
	}
	if len(in.audits) == 0 {
		if o.html != "" || o.merged != "" {
			return nil // the flight outputs asked for are written
		}
		return errors.New("no audit dumps among the inputs")
	}
	if audit.Explain(w, audit.Merge(in.audits...), fl, f) == 0 {
		return errors.New("no decisions match the filter")
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// inputs collects what the arguments hold, by kind.
type inputs struct {
	audits  []*audit.Dump
	flights []*flight.Dump
}

// add reads one argument: a file, or else a node's debug address.
func (in *inputs) add(arg string) error {
	if fi, err := os.Stat(arg); err == nil && !fi.IsDir() {
		f, err := os.Open(arg)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := in.read(f); err != nil {
			return fmt.Errorf("%s: %w", arg, err)
		}
		return nil
	}
	base := strings.TrimSuffix(arg, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if err := in.fetch(base + "/debug/audit"); err != nil {
		return fmt.Errorf("%s (not a file): %w", arg, err)
	}
	// Flight is optional context: a node that serves no flight ring still
	// explains from audit evidence alone. Any other failure is reported, as
	// the flight dump may be the whole point (-timeline).
	if err := in.fetch(base + "/debug/flight"); err != nil && !errors.Is(err, errNotFound) {
		return fmt.Errorf("%s: %w", arg, err)
	}
	return nil
}

// client fetches debug endpoints; the timeout bounds each request whole.
var client = &http.Client{Timeout: 10 * time.Second}

// errNotFound is fetch's error for an endpoint the node does not serve.
var errNotFound = errors.New("404 Not Found")

// fetch reads the dump a debug endpoint serves.
func (in *inputs) fetch(url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return fmt.Errorf("%s: %w", url, errNotFound)
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	if err := in.read(resp.Body); err != nil {
		return fmt.Errorf("%s: %w", url, err)
	}
	return nil
}

// read classifies one JSONL input by its first line and parses it.
func (in *inputs) read(r io.Reader) error {
	br := bufio.NewReaderSize(r, 64*1024)
	first, err := br.Peek(64 * 1024)
	if err != nil && err != io.EOF && err != bufio.ErrBufferFull {
		return err
	}
	if i := bytes.IndexByte(first, '\n'); i >= 0 {
		first = first[:i]
	}
	var head struct {
		Audit  *int `json:"audit"`
		Flight *int `json:"flight"`
		Reason any  `json:"reason"`
	}
	if err := json.Unmarshal(first, &head); err != nil {
		return fmt.Errorf("first line is not JSON: %w", err)
	}
	switch {
	case head.Audit != nil:
		return appendRead(&in.audits, audit.ReadDump, br)
	case head.Flight != nil:
		return appendRead(&in.flights, flight.ReadDump, br)
	case head.Reason != nil:
		return appendRead(&in.audits, audit.ReadStream, br)
	}
	return errors.New("not an audit dump, flight dump or audit stream")
}

// appendRead reads one dump with read and, if it parses, appends it to list.
func appendRead[D any](list *[]D, read func(io.Reader) (D, error), r io.Reader) error {
	d, err := read(r)
	if err == nil {
		*list = append(*list, d)
	}
	return err
}
