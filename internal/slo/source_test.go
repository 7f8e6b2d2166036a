package slo

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"wanac/internal/core"
	"wanac/internal/sim"
	"wanac/internal/telemetry"
	"wanac/internal/wire"
)

// TestCheckSpecsOneModel: for a registry shaped like a scenario's (core's
// check families instrumented over two hosts and three managers), the
// model Gather builds is the one a strict parse of its exposition reads
// back, and both shared check SLOs read the same (good, total) from the
// registry in place as from that parsed exposition.
func TestCheckSpecsOneModel(t *testing.T) {
	const qt = 500 * time.Millisecond
	reg := telemetry.NewRegistry()
	w, err := sim.Build(sim.Config{
		Managers: 3, Hosts: 2,
		Policy:    core.Policy{CheckQuorum: 2, Te: time.Minute, QueryTimeout: qt, MaxAttempts: 2},
		Te:        time.Minute,
		Users:     []wire.UserID{"alice"},
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	// An allow, a cache hit and a deny on h0; on h1, cut off from every
	// manager, rounds that time out.
	for _, user := range []wire.UserID{"alice", "alice", "mallory"} {
		if _, ok := w.CheckSync(0, user, wire.RightUse, time.Minute); !ok {
			t.Fatalf("check for %s on h0 did not finish", user)
		}
	}
	w.PartitionHostFromManagers(1, 0, 1, 2)
	if _, ok := w.CheckSync(1, "alice", wire.RightUse, time.Minute); !ok {
		t.Fatal("partitioned check on h1 did not finish")
	}

	gathered := reg.Gather()
	var text bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	parsed, err := telemetry.ParseMetrics(&text)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gathered.Types, parsed.Types) {
		t.Errorf("types differ:\ngathered %v\nparsed   %v", gathered.Types, parsed.Types)
	}
	if !reflect.DeepEqual(gathered.Help, parsed.Help) {
		t.Errorf("help differs:\ngathered %v\nparsed   %v", gathered.Help, parsed.Help)
	}
	if len(gathered.Samples) != len(parsed.Samples) {
		t.Fatalf("gathered %d samples, parsed %d", len(gathered.Samples), len(parsed.Samples))
	}
	for i := range gathered.Samples {
		if g, p := gathered.Samples[i], parsed.Samples[i]; !reflect.DeepEqual(g, p) {
			t.Fatalf("sample %d: gathered %+v, parsed %+v", i, g, p)
		}
	}

	inPlace := CheckSpecs(Spec{}, qt, func() Source { return reg })
	scraped := CheckSpecs(Spec{}, qt, func() Source { return parsed })
	for i, sp := range inPlace {
		g1, t1 := sp.Indicator.read()
		g2, t2 := scraped[i].Indicator.read()
		if g1 != g2 || t1 != t2 {
			t.Errorf("%s: in place (%g, %g), from the exposition (%g, %g)", sp.Name, g1, t1, g2, t2)
		}
		if t1 == 0 {
			t.Errorf("%s read no events", sp.Name)
		}
		t.Logf("%s: good %g of %g", sp.Name, g1, t1)
	}
	if g, total := inPlace[1].Indicator.read(); g == total {
		t.Errorf("check-availability read no bad events (%g of %g): the partitioned host's timeouts are missing", g, total)
	}
}
