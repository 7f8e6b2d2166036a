package flight

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"wanac/internal/clitest"
)

// goldenDump is a small deterministic merged dump exercising every record
// kind, a drifting clock, and a ring-overwrite drop count.
func goldenDump() *Dump {
	epoch := time.Unix(1_700_000_000, 0).UTC()
	at := func(s float64) time.Time { return epoch.Add(time.Duration(s * float64(time.Second))) }

	h := NewRecorder("h0", 64, nil)
	m := NewRecorder("m0", 64, nil)
	net := NewRecorder("net", 64, nil)

	// Host clock runs 3s behind the manager's; one anchor pair fixes it.
	h.Record(Record{T: at(2), Kind: KindProtocol, Type: "query-sent", Trace: 0xabc, App: "stocks", User: "alice"})
	m.Record(Record{T: at(5.004), Kind: KindProtocol, Type: "query-served", Trace: 0xabc, App: "stocks", User: "alice", Note: "host=h0 granted"})
	m.Record(Record{T: at(6), Kind: KindQuorum, Type: "update-quorum", Origin: "m0", Counter: 1, App: "stocks", User: "bob"})
	h.Record(Record{T: at(2.1), Kind: KindQuorum, Type: "access-allowed", Trace: 0xabc, App: "stocks", User: "alice", Note: "quorum"})
	h.Record(Record{T: at(4), Kind: KindTransport, Type: "backoff", Peer: "m1"})
	net.Record(Record{T: at(7), Kind: KindNet, Type: "annotation", Note: "cut h0-m1"})

	d := Merge(h.Dump(), m.Dump(), net.Dump())
	d.Header.Dropped = 3
	d.Records = append(d.Records, Record{Seq: 0, T: at(8), Node: "oracle", Kind: KindMark, Type: "oracle-violation", Note: "revocation-safety: stale allow"})
	d.Header.Nodes = append(d.Header.Nodes, "oracle")
	return d
}

func TestTimelineGolden(t *testing.T) {
	tl := BuildTimeline(goldenDump())
	var buf bytes.Buffer
	if err := tl.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	clitest.CheckGolden(t, "timeline.golden", buf.String())
}

func TestTimelineOrdersByAlignedTime(t *testing.T) {
	tl := BuildTimeline(goldenDump())
	for i := 1; i < len(tl.Entries); i++ {
		if tl.Entries[i].At.Before(tl.Entries[i-1].At) {
			t.Fatalf("entry %d (%s %s) out of order", i, tl.Entries[i].Rec.Node, tl.Entries[i].Rec.Type)
		}
	}
	if tl.Dropped != 3 {
		t.Fatalf("Dropped = %d, want 3", tl.Dropped)
	}
}

func TestWriteHTMLSelfContained(t *testing.T) {
	tl := BuildTimeline(goldenDump())
	var buf bytes.Buffer
	if err := tl.WriteHTML(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<!DOCTYPE html>", "query-served", "oracle-violation", "kind-quorum", "</html>"} {
		if !strings.Contains(out, want) {
			t.Errorf("HTML output missing %q", want)
		}
	}
	for _, banned := range []string{"<script src", "href=\"http", "src=\"http"} {
		if strings.Contains(out, banned) {
			t.Errorf("HTML output references external asset: %q", banned)
		}
	}
}
