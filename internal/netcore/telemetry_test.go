package netcore

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"wanac/internal/telemetry"
)

// TestStatsPeerStates pins the per-peer state map added to
// TransportStats and its agreement with the aggregate tallies.
func TestStatsPeerStates(t *testing.T) {
	g := NewGroup("test", testConfig())
	defer g.Close()
	s := &fakeSender{}
	g.Ensure("m0", func() (Sender, error) { return s, nil })
	g.Ensure("m1", func() (Sender, error) { return nil, fmt.Errorf("refused") })

	p := g.Get("m0")
	p.EnqueueMessage(tagged(1))
	waitFor(t, func() bool { return s.count() == 1 })
	g.Get("m1").EnqueueMessage(tagged(2))
	waitFor(t, func() bool { return g.Stats().PeersBackoff >= 1 })

	st := g.Stats()
	if len(st.Peers) != 2 {
		t.Fatalf("Peers = %v, want 2 entries", st.Peers)
	}
	if st.Peers["m0"] != "up" {
		t.Errorf("m0 state = %q, want up", st.Peers["m0"])
	}
	if st.Peers["m1"] != "backoff" && st.Peers["m1"] != "connecting" {
		t.Errorf("m1 state = %q, want backoff or connecting", st.Peers["m1"])
	}
	// The map and the tallies are taken under one lock, so they must
	// agree.
	byState := map[string]int{}
	for _, state := range st.Peers {
		byState[state]++
	}
	if byState["up"] != st.PeersUp || byState["connecting"] != st.PeersConnecting ||
		byState["backoff"] != st.PeersBackoff {
		t.Errorf("tallies %v disagree with map %v", st, st.Peers)
	}
}

// TestRegisterTransport pins the /metrics view against the raw stats
// snapshot: same numbers, valid exposition.
func TestRegisterTransport(t *testing.T) {
	g := NewGroup("test", testConfig())
	defer g.Close()
	s := &fakeSender{}
	g.Ensure("m0", func() (Sender, error) { return s, nil })
	g.Counters().Sends.Add(3)
	g.Get("m0").EnqueueMessage(tagged(1))
	waitFor(t, func() bool { return s.count() == 1 })

	reg := telemetry.NewRegistry()
	RegisterTransport(reg, g.Stats)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if _, err := telemetry.ParseText(strings.NewReader(out)); err != nil {
		t.Fatalf("transport exposition invalid: %v\n%s", err, out)
	}
	st := g.Stats()
	for _, line := range []string{
		fmt.Sprintf("wanac_transport_sends_total %d", st.Sends),
		fmt.Sprintf("wanac_transport_bytes_out_total %d", st.BytesOut),
		fmt.Sprintf("wanac_transport_peers_up %d", st.PeersUp),
		fmt.Sprintf(`wanac_transport_peer_state{peer="m0",state="%s"} 1`, st.Peers["m0"]),
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}
