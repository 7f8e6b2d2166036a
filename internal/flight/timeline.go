package flight

import (
	"fmt"
	"html"
	"io"
	"sort"
	"strings"
	"time"
)

// Entry is one timeline row: a record plus its clock-aligned time.
type Entry struct {
	// At is the record's time mapped onto the reference frame.
	At time.Time
	// Rec is the original record (local timestamp preserved).
	Rec Record
}

// Timeline is a merged dump ordered causally: records sorted by aligned
// time, with node name and per-node sequence as deterministic tie-breaks.
type Timeline struct {
	Align   *Alignment
	Entries []Entry
	// Start is the earliest aligned time; renderers print offsets from it.
	Start time.Time
	// Dropped is carried from the dump header.
	Dropped uint64
}

// BuildTimeline aligns the dump's clocks and orders the records a timeline
// shows (asEvent).
func BuildTimeline(d *Dump) *Timeline {
	shown := &Dump{Header: d.Header}
	for i := range d.Records {
		if r, ok := d.Records[i].asEvent(); ok {
			shown.Records = append(shown.Records, r)
		}
	}
	al := Align(shown)
	tl := &Timeline{Align: al, Dropped: d.Header.Dropped}
	tl.Entries = make([]Entry, 0, len(shown.Records))
	for _, r := range shown.Records {
		tl.Entries = append(tl.Entries, Entry{At: al.Adjust(r.Node, r.T), Rec: r})
	}
	sort.SliceStable(tl.Entries, func(i, j int) bool {
		a, b := &tl.Entries[i], &tl.Entries[j]
		if !a.At.Equal(b.At) {
			return a.At.Before(b.At)
		}
		if a.Rec.Node != b.Rec.Node {
			return a.Rec.Node < b.Rec.Node
		}
		return a.Rec.Seq < b.Rec.Seq
	})
	if len(tl.Entries) > 0 {
		tl.Start = tl.Entries[0].At
	}
	return tl
}

// detail renders the record's attribute tail shared by both renderers.
func detail(r *Record) string {
	var b strings.Builder
	if r.App != "" {
		fmt.Fprintf(&b, " app=%s", r.App)
	}
	if r.User != "" {
		fmt.Fprintf(&b, " user=%s", r.User)
	}
	if r.Origin != "" {
		fmt.Fprintf(&b, " seq=%s/%d", r.Origin, r.Counter)
	}
	if r.Peer != "" {
		fmt.Fprintf(&b, " peer=%s", r.Peer)
	}
	if r.Trace != 0 {
		fmt.Fprintf(&b, " trace=%016x", r.Trace)
	}
	if r.Note != "" {
		fmt.Fprintf(&b, " %s", r.Note)
	}
	if b.Len() == 0 {
		return ""
	}
	return b.String()[1:]
}

// describeAlign summarizes one node's correction for the header block.
func describeAlign(na NodeAlign, isRef bool) string {
	switch {
	case isRef:
		return "reference"
	case na.Anchors == 0:
		return "as-recorded (no anchors)"
	case na.Scale != 1:
		return fmt.Sprintf("offset %+.3fs rate ×%.3f (%d anchors)", na.Shift, na.Scale, na.Anchors)
	default:
		return fmt.Sprintf("offset %+.3fs (%d anchors)", na.Shift, na.Anchors)
	}
}

func sortedNodes(al *Alignment) []string {
	nodes := make([]string, 0, len(al.Nodes))
	for n := range al.Nodes {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	return nodes
}

// WriteText renders the timeline as aligned text: an alignment header, then
// one line per record with its offset from the earliest aligned event.
func (tl *Timeline) WriteText(w io.Writer) error {
	nodes := sortedNodes(tl.Align)
	nodeW, kindW, typeW := 4, 4, 4
	for _, n := range nodes {
		if len(n) > nodeW {
			nodeW = len(n)
		}
	}
	for _, e := range tl.Entries {
		if l := len(e.Rec.Kind.String()); l > kindW {
			kindW = l
		}
		if l := len(e.Rec.Type); l > typeW {
			typeW = l
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "flight timeline: %d nodes, %d records", len(nodes), len(tl.Entries))
	if tl.Dropped > 0 {
		fmt.Fprintf(&b, " (%d older records lost to ring overwrite)", tl.Dropped)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "clock alignment (reference %s):\n", tl.Align.Reference)
	for _, n := range nodes {
		fmt.Fprintf(&b, "  %-*s  %s\n", nodeW, n, describeAlign(tl.Align.Nodes[n], n == tl.Align.Reference))
	}
	b.WriteString("\n")
	for _, e := range tl.Entries {
		fmt.Fprintf(&b, "%+12.3fs  %-*s  %-*s  %-*s", e.At.Sub(tl.Start).Seconds(),
			nodeW, e.Rec.Node, kindW, e.Rec.Kind.String(), typeW, e.Rec.Type)
		if d := detail(&e.Rec); d != "" {
			b.WriteString("  ")
			b.WriteString(d)
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// lanePalette colors node lanes in the HTML view; assignment is by sorted
// node index, so reruns of the same dump color identically.
var lanePalette = []string{
	"#2563eb", "#dc2626", "#059669", "#d97706", "#7c3aed",
	"#db2777", "#0891b2", "#65a30d", "#9333ea", "#b91c1c",
}

// WriteHTML renders the timeline as a single self-contained HTML page (no
// external assets), suitable for attaching to a bug report or CI artifact.
func (tl *Timeline) WriteHTML(w io.Writer) error {
	nodes := sortedNodes(tl.Align)
	color := make(map[string]string, len(nodes))
	for i, n := range nodes {
		color[n] = lanePalette[i%len(lanePalette)]
	}
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>flight timeline</title>
<style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem; color: #111; }
h1 { font-size: 1.3rem; }
.align { margin: 0.5rem 0 1.5rem; border-collapse: collapse; }
.align td { padding: 0.1rem 0.8rem 0.1rem 0; font-family: ui-monospace, monospace; font-size: 13px; }
table.tl { border-collapse: collapse; width: 100%; }
table.tl th { text-align: left; border-bottom: 2px solid #ddd; padding: 0.3rem 0.6rem; }
table.tl td { border-bottom: 1px solid #eee; padding: 0.2rem 0.6rem; font-family: ui-monospace, monospace; font-size: 13px; white-space: nowrap; }
td.time { text-align: right; color: #555; }
td.detail { white-space: normal; }
.node { font-weight: 600; }
.kind-quorum { background: #fef9c3; }
.kind-mark { background: #fee2e2; }
.kind-net { background: #f1f5f9; }
</style>
</head>
<body>
`)
	fmt.Fprintf(&b, "<h1>flight timeline — %d nodes, %d records</h1>\n", len(nodes), len(tl.Entries))
	if tl.Dropped > 0 {
		fmt.Fprintf(&b, "<p>%d older records lost to ring overwrite.</p>\n", tl.Dropped)
	}
	fmt.Fprintf(&b, "<p>clock alignment (reference <strong>%s</strong>):</p>\n<table class=\"align\">\n", html.EscapeString(tl.Align.Reference))
	for _, n := range nodes {
		fmt.Fprintf(&b, "<tr><td class=\"node\" style=\"color:%s\">%s</td><td>%s</td></tr>\n",
			color[n], html.EscapeString(n), html.EscapeString(describeAlign(tl.Align.Nodes[n], n == tl.Align.Reference)))
	}
	b.WriteString("</table>\n<table class=\"tl\">\n<tr><th>t</th><th>node</th><th>kind</th><th>event</th><th>detail</th></tr>\n")
	for _, e := range tl.Entries {
		fmt.Fprintf(&b, "<tr class=\"kind-%s\"><td class=\"time\">%+.3fs</td><td class=\"node\" style=\"color:%s\">%s</td><td>%s</td><td>%s</td><td class=\"detail\">%s</td></tr>\n",
			e.Rec.Kind, e.At.Sub(tl.Start).Seconds(), color[e.Rec.Node],
			html.EscapeString(e.Rec.Node), e.Rec.Kind, html.EscapeString(e.Rec.Type),
			html.EscapeString(detail(&e.Rec)))
	}
	b.WriteString("</table>\n</body>\n</html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}
