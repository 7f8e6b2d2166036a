// Command acaudit is the forensic command. It answers "why was this check
// allowed (or denied)?" from node journals: for each selected decision, the
// decision record with its evidence (the cache entry and vouching managers,
// the quorum round and granting set, or the fallback rule and exhausted
// attempts), the manager responses sharing the check's trace ID, and the
// protocol records of the same check. With -timeline it answers "what
// happened, in order?" instead: the journals merged, their drifting clocks
// aligned (internal/flight's Align), as one causal timeline.
//
//	acaudit h0.jsonl m0.jsonl m1.jsonl
//	acaudit -user alice -last 1 127.0.0.1:7180 127.0.0.1:7280
//	acaudit -trace 00000000000000a3 h0.jsonl m0.jsonl
//	acaudit -at 12:04:05 -window 2s h0-audit.jsonl
//	acaudit -timeline -html tl.html -merged all.jsonl 127.0.0.1:7180 m0.jsonl
//
// An argument naming an existing file is a journal dump, or a headerless
// record stream such as acnode's -audit.jsonl file. Any other argument is a
// node's -debug.addr (host:port or a URL): it contributes the node's
// /debug/journal dump.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"wanac/internal/flight"
)

// options are acaudit's flags beyond the decision filter.
type options struct {
	timeline bool   // render the timeline instead of explanations
	html     string // also write the timeline as HTML here
	merged   string // also write the merged dump here
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
	flag.BoolVar(&o.timeline, "timeline", false, "render the aligned, merged timeline instead of explanations")
	flag.StringVar(&o.html, "html", "", "also write the timeline as a self-contained HTML page to this file")
	flag.StringVar(&o.merged, "merged", "", "also write the merged journal dump (versioned JSONL) to this file")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: acaudit [-timeline] [-html out.html] [-merged out.jsonl] [filters] (dump.jsonl | debug-addr)...")
		flag.PrintDefaults()
	}
	flag.Parse()

	f := flight.Filter{App: *app, User: *user, Node: *node, Window: *window, Last: *last}
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

func run(w io.Writer, f flight.Filter, o options, args []string) error {
	if len(args) == 0 {
		return errors.New("no inputs given (dump files or node debug addresses)")
	}
	dumps := make([]*flight.Dump, 0, len(args))
	for _, arg := range args {
		d, err := read(arg)
		if err != nil {
			return err
		}
		dumps = append(dumps, d)
	}
	d := flight.Merge(dumps...)
	if o.merged != "" {
		if err := writeFile(o.merged, d.Write); err != nil {
			return err
		}
	}
	if o.html != "" {
		if err := writeFile(o.html, flight.BuildTimeline(d).WriteHTML); err != nil {
			return err
		}
	}
	if o.timeline {
		return flight.BuildTimeline(d).WriteText(w)
	}
	if flight.Explain(w, d, f) == 0 && o.html == "" && o.merged == "" {
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

// read reads one argument's dump: a file's, or else the /debug/journal of
// the node whose debug address it is.
func read(arg string) (*flight.Dump, error) {
	body, err := open(arg)
	if err == nil {
		defer body.Close()
		var d *flight.Dump
		if d, err = flight.ReadDump(body); err == nil {
			return d, nil
		}
	}
	return nil, fmt.Errorf("%s: %w", arg, err)
}

// client fetches debug endpoints; the timeout bounds each request whole.
var client = &http.Client{Timeout: 10 * time.Second}

func open(arg string) (io.ReadCloser, error) {
	if fi, err := os.Stat(arg); err == nil && !fi.IsDir() {
		return os.Open(arg)
	}
	url := strings.TrimSuffix(arg, "/") + "/debug/journal"
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return resp.Body, nil
}
