package flight

import (
	"testing"
	"time"
)

// driftDump builds a synthetic three-node merged dump where host h0's clock
// runs at the given rate relative to the managers' shared true clock:
// h0 records true instant x at epoch+rate·x. Managers serve each query ~5ms
// of network latency after the host sent it.
func driftDump(t *testing.T, rate float64) (*Dump, time.Time) {
	t.Helper()
	epoch := time.Unix(1_000_000, 0).UTC()
	trueAt := func(s float64) time.Time { return epoch.Add(time.Duration(s * float64(time.Second))) }
	hostAt := func(s float64) time.Time { return epoch.Add(time.Duration(rate * s * float64(time.Second))) }

	h := NewRecorder("h0", 64, nil)
	m0 := NewRecorder("m0", 64, nil)
	m1 := NewRecorder("m1", 64, nil)
	// Query rounds at true seconds 2, 10, 30: enough spread for a rate fit.
	for i, s := range []float64{2, 10, 30} {
		id := uint64(i + 1)
		h.Record(Record{T: hostAt(s), Kind: KindProtocol, Type: "query-sent", Trace: id, App: "app", User: "alice"})
		m0.Record(Record{T: trueAt(s + 0.005), Kind: KindProtocol, Type: "query-served", Trace: id, App: "app", User: "alice"})
		m1.Record(Record{T: trueAt(s + 0.006), Kind: KindProtocol, Type: "query-served", Trace: id, App: "app", User: "alice"})
	}
	// An unanchored pseudo-node: must keep its clock as recorded.
	net := NewRecorder("net", 16, nil)
	net.Record(Record{T: trueAt(20), Kind: KindNet, Type: "link-cut", Note: "h0-m0"})
	return Merge(h.Dump(), m0.Dump(), m1.Dump(), net.Dump()), epoch
}

func TestAlignRecoversDriftingClock(t *testing.T) {
	const rate = 0.8
	d, _ := driftDump(t, rate)
	al := Align(d)

	if al.Reference == "" {
		t.Fatal("no reference chosen")
	}
	// Every matched pair must land within network latency (plus fit noise)
	// of each other once adjusted — even though the raw clocks disagree by
	// up to (1-rate)·30s = 6s at the last anchor.
	byTrace := map[uint64]map[string]time.Time{}
	for _, r := range d.Records {
		if r.Trace == 0 {
			continue
		}
		if byTrace[r.Trace] == nil {
			byTrace[r.Trace] = map[string]time.Time{}
		}
		byTrace[r.Trace][r.Node] = al.Adjust(r.Node, r.T)
	}
	for id, per := range byTrace {
		sent, served := per["h0"], per["m0"]
		if gap := served.Sub(sent); gap < -50*time.Millisecond || gap > 100*time.Millisecond {
			t.Errorf("trace %d: aligned sent/served gap = %v, want within one latency", id, gap)
		}
	}
	// The drifting node's fit must have used the anchors and found a rate.
	var drifting string
	if al.Reference == "h0" {
		drifting = "m0" // managers get mapped onto the host frame instead
	} else {
		drifting = "h0"
	}
	na := al.Nodes[drifting]
	if na.Anchors == 0 {
		t.Fatalf("node %s aligned with no anchors: %+v", drifting, na)
	}
	if na.Scale == 1 {
		t.Fatalf("node %s: no rate recovered despite 28s anchor spread: %+v", drifting, na)
	}
	// The unanchored pseudo-node keeps identity.
	if na := al.Nodes["net"]; na.Scale != 1 || na.Shift != 0 || na.Anchors != 0 {
		t.Fatalf("net node not identity: %+v", na)
	}
}

func TestAlignSkewOnlyUsesMedianOffset(t *testing.T) {
	epoch := time.Unix(1_000_000, 0).UTC()
	h := NewRecorder("h0", 16, nil)
	m := NewRecorder("m0", 16, nil)
	// One anchor pair: host clock 3s behind. Too little spread for a rate.
	h.Record(Record{T: epoch.Add(2 * time.Second), Kind: KindProtocol, Type: "query-sent", Trace: 1})
	m.Record(Record{T: epoch.Add(5 * time.Second), Kind: KindProtocol, Type: "query-served", Trace: 1})
	al := Align(Merge(h.Dump(), m.Dump()))
	a := al.Adjust("h0", epoch.Add(2*time.Second))
	b := al.Adjust("m0", epoch.Add(5*time.Second))
	if gap := b.Sub(a); gap < -time.Millisecond || gap > time.Millisecond {
		t.Fatalf("aligned pair gap = %v, want ~0 (offset-only fit)", gap)
	}
}

func TestAlignEmptyDump(t *testing.T) {
	al := Align(&Dump{})
	if len(al.Nodes) != 0 {
		t.Fatalf("empty dump produced node alignments: %+v", al.Nodes)
	}
}

func TestUpdateAnchorsAlignManagers(t *testing.T) {
	epoch := time.Unix(1_000_000, 0).UTC()
	m0 := NewRecorder("m0", 16, nil)
	m1 := NewRecorder("m1", 16, nil)
	// m1's clock is 2s fast; the update reaches it 10ms after issue.
	m0.Record(Record{T: epoch.Add(1 * time.Second), Kind: KindProtocol, Type: "update-issued", Origin: "m0", Counter: 1})
	m1.Record(Record{T: epoch.Add(3*time.Second + 10*time.Millisecond), Kind: KindProtocol, Type: "update-applied", Origin: "m0", Counter: 1})
	al := Align(Merge(m0.Dump(), m1.Dump()))
	a := al.Adjust("m0", epoch.Add(1*time.Second))
	b := al.Adjust("m1", epoch.Add(3*time.Second+10*time.Millisecond))
	if gap := b.Sub(a); gap < 0 || gap > 50*time.Millisecond {
		t.Fatalf("aligned update pair gap = %v, want ~10ms", gap)
	}
}

// TestFitIgnoresObservationOrder: Align hands fit its anchor pairs in map
// order, so the fit must not depend on it, or one dump renders differently
// from run to run.
func TestFitIgnoresObservationOrder(t *testing.T) {
	xs := []float64{0.1, 7.3, 2.9, 11.7, 5.05, 0.7, 9.9}
	ys := []float64{3.204, 10.42, 6.01, 14.83, 8.151, 3.79, 13.02}
	want := fit(xs, ys)
	for shift := 1; shift < len(xs); shift++ {
		rx := append(append([]float64(nil), xs[shift:]...), xs[:shift]...)
		ry := append(append([]float64(nil), ys[shift:]...), ys[:shift]...)
		if got := fit(rx, ry); got != want {
			t.Fatalf("fit of the pairs rotated by %d = %+v, want %+v", shift, got, want)
		}
	}
}
