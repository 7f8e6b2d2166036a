package scenario

import (
	"math"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"wanac/internal/core"
	"wanac/internal/flight"
	"wanac/internal/harness"
	"wanac/internal/sim"
	"wanac/internal/simnet"
	"wanac/internal/wire"
)

func TestCatalogShape(t *testing.T) {
	cat := Catalog()
	if len(cat) < 8 {
		t.Fatalf("catalog has %d scenarios, want >= 8", len(cat))
	}
	seen := map[string]bool{}
	for _, sc := range cat {
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if err := sc.validate(); err != nil {
			t.Errorf("scenario %s invalid: %v", sc.Name, err)
		}
		if sc.Summary == "" {
			t.Errorf("scenario %s has no summary", sc.Name)
		}
		got, err := Lookup(sc.Name)
		if err != nil || got.Name != sc.Name {
			t.Errorf("Lookup(%q) = %v, %v", sc.Name, got, err)
		}
	}
	if _, err := Lookup("no-such-scenario"); err == nil {
		t.Error("Lookup of unknown scenario succeeded")
	}
}

// resultKey projects the replay-relevant fields of a Result for equality
// checks (the Flight pointer and artifact path are excluded).
func resultKey(r *Result) Result {
	return Result{
		Name: r.Name, Seed: r.Seed,
		Outcome: harness.Outcome{
			Checks: r.Checks, Decisions: r.Decisions,
			Allowed: r.Allowed, Denied: r.Denied, DefaultAllowed: r.DefaultAllowed,
			Oracles: r.Oracles, Violations: r.Violations,
			Net: r.Net,
		},
		Revocations: r.Revocations, RevocationLags: r.RevocationLags,
		RevocationLagP99: r.RevocationLagP99,
	}
}

func TestScenarioDeterminism(t *testing.T) {
	sc, err := Lookup("steady-baseline")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(sc, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resultKey(a), resultKey(b)) {
		t.Fatalf("same (scenario, seed) diverged:\n%+v\nvs\n%+v", resultKey(a), resultKey(b))
	}
	c, err := Run(sc, 43)
	if err != nil {
		t.Fatal(err)
	}
	if a.Checks == c.Checks && a.Net.Sent == c.Net.Sent {
		t.Error("different seeds produced an identical run (suspicious)")
	}
}

// TestCIFastScenarios is the CI scenario gate: three fast catalog runs that
// must keep all five oracles clean under scripts/ci.sh's race pass.
func TestCIFastScenarios(t *testing.T) {
	for _, name := range []string{"steady-baseline", "oneway-blackout", "revoke-under-partition"} {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(sc, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed() {
				for _, v := range res.Violations {
					t.Errorf("violation: %s", v)
				}
				t.Fatalf("scenario %s violated its oracles", name)
			}
			if len(res.Oracles) != 5 {
				t.Fatalf("attached %d oracles, want 5: %+v", len(res.Oracles), res.Oracles)
			}
			if res.Decisions == 0 {
				t.Fatal("scenario decided nothing")
			}
			if res.Allowed == 0 {
				t.Fatal("no confirmed allows: scenario exercised nothing")
			}
		})
	}
}

// TestFullCatalogRuns executes every catalog scenario at its default seed:
// all five oracles attach and observe traffic, and every scenario runs
// clean except the deliberately broken one, which must fail. Their
// TableRows are the table EXPERIMENTS.md publishes.
func TestFullCatalogRuns(t *testing.T) {
	cat := Catalog()
	rows := make([]string, len(cat))
	for i, sc := range cat {
		t.Run(sc.Name, func(t *testing.T) {
			res, err := Run(sc, 0)
			if err != nil {
				t.Fatal(err)
			}
			rows[i] = TableRow(sc, res)
			if len(res.Oracles) != 5 {
				t.Fatalf("attached %d oracles, want 5", len(res.Oracles))
			}
			if res.Decisions == 0 {
				t.Fatal("scenario decided nothing")
			}
			if sc.Break != (harness.Options{}) {
				if !res.Failed() {
					t.Fatal("broken scenario ran clean")
				}
				return
			}
			if res.Failed() {
				for _, v := range res.Violations {
					t.Errorf("violation: %s", v)
				}
				t.Fatalf("scenario %s violated its oracles", sc.Name)
			}
		})
	}
	table := TableHeader
	for _, row := range rows {
		if row == "" {
			return // a -run filter or a failed run left no full table to compare
		}
		table += row
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	// The published table is the first block of | lines under the heading.
	_, gallery, _ := strings.Cut(string(doc), "\n## Scenario gallery\n")
	_, gallery, _ = strings.Cut(gallery, "\n\n|")
	published, _, _ := strings.Cut("|"+gallery, "\n\n")
	if table != published+"\n" {
		t.Errorf("EXPERIMENTS.md \"Scenario gallery\" is not `acsim table`.\n--- acsim table ---\n%s--- published ---\n%s\n", table, published)
	}
}

// TestStaleAllowDemo pins the catalog's deliberately broken scenario: the
// revocation-safety oracle must fire, and the flight dump artifact must be
// written and re-readable with the violation marks on the timeline.
func TestStaleAllowDemo(t *testing.T) {
	t.Setenv("WANAC_ARTIFACTS", t.TempDir())
	sc, err := Lookup("stale-allow-demo")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Fatal("broken scenario ran clean; expected revocation-safety violations")
	}
	revViolations, auditViolations, staleGrant := 0, 0, 0
	for _, v := range res.Violations {
		switch v.Oracle {
		case harness.OracleRevocation:
			revViolations++
		case harness.OracleAudit:
			auditViolations++
			if strings.Contains(v.Detail, "beyond the revocation bound") {
				staleGrant++
			}
		}
	}
	if revViolations == 0 {
		t.Fatalf("no revocation-safety violations; got %+v", res.Violations)
	}
	// The audit trail must make the same leak self-explaining: records that
	// cite grants outliving the configured te (the inflated bound is the
	// injected bug) surface as audit-completeness violations.
	if auditViolations == 0 {
		t.Fatalf("audit oracle silent on the stale-allow leak; got %+v", res.Violations)
	}
	if staleGrant == 0 {
		t.Fatalf("no audit record cited a grant beyond the revocation bound; got %+v", res.Violations)
	}
	if res.Flight == nil {
		t.Fatal("failed run produced no flight dump")
	}
	path, err := res.WriteFlightArtifact()
	if err != nil {
		t.Fatal(err)
	}
	if path == "" || res.FlightPath != path {
		t.Fatalf("artifact path not recorded: %q vs %q", path, res.FlightPath)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dump, err := flight.ReadDump(f)
	if err != nil {
		t.Fatalf("artifact unreadable: %v", err)
	}
	marks := 0
	for _, rec := range dump.Records {
		if rec.Kind == flight.KindMark && rec.Type == "oracle-violation" {
			marks++
		}
	}
	if marks != len(res.Violations) {
		t.Fatalf("artifact has %d violation marks, want %d", marks, len(res.Violations))
	}
}

// TestOneWayFailover exercises the paper's query protocol under an
// asymmetric cut at the protocol level: the host's first round goes to m0
// (C=1, fresh rotation), whose replies are severed — the host can send but
// never hears back, so the round must time out and the retry round must
// widen to the remaining managers and succeed.
func TestOneWayFailover(t *testing.T) {
	w, err := sim.Build(sim.Config{
		Managers: 3,
		Hosts:    1,
		Policy:   core.Policy{CheckQuorum: 1, Te: time.Minute, MaxAttempts: 3},
		Te:       time.Minute,
		Users:    []wire.UserID{"u0"},
		Net:      simnet.Config{Latency: simnet.Fixed{D: 10 * time.Millisecond}, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sever only m0→h0: queries still reach m0, replies vanish.
	w.Net.PartitionOneWay([]wire.NodeID{"m0"}, []wire.NodeID{"h0"})
	if !w.Net.Linked("h0", "m0") {
		t.Fatal("h0→m0 should remain up (one-way cut)")
	}

	d, ok := w.CheckSync(0, "u0", wire.RightUse, 30*time.Second)
	if !ok {
		t.Fatal("check never decided")
	}
	if !d.Allowed || d.DefaultAllowed {
		t.Fatalf("check not confirmed after failover: %+v", d)
	}
	if d.Attempts < 2 {
		t.Fatalf("decided in %d attempts; the severed first round should have timed out", d.Attempts)
	}
	st := w.Hosts[0].Stats()
	if st.QueryTimeouts == 0 {
		t.Fatalf("no query timeouts recorded: %+v", st)
	}
}

// TestOneWayScenarioOracleRun is the oracle-backed end of the failover
// satellite: the catalog's oneway-blackout scenario (manager replies
// severed toward a host region mid-run) must keep all five oracles clean
// while still confirming accesses during the blackout.
func TestOneWayScenarioOracleRun(t *testing.T) {
	sc, err := Lookup("oneway-blackout")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		for _, v := range res.Violations {
			t.Errorf("violation: %s", v)
		}
		t.Fatal("oneway-blackout violated its oracles")
	}
	if res.Allowed == 0 {
		t.Fatal("no confirmed allows during the scenario")
	}
}

func TestCurves(t *testing.T) {
	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

	d := Diurnal{Base: 2, Peak: 12, Period: 2 * time.Minute}
	if r := d.Rate(0); !approx(r, 2) {
		t.Errorf("diurnal trough = %g, want 2", r)
	}
	if r := d.Rate(time.Minute); !approx(r, 12) {
		t.Errorf("diurnal peak = %g, want 12", r)
	}
	if r := d.Rate(2 * time.Minute); !approx(r, 2) {
		t.Errorf("diurnal full period = %g, want 2", r)
	}

	f := FlashCrowd{Base: 3, Peak: 40, At: 60 * time.Second,
		Rise: 10 * time.Second, Sustain: 30 * time.Second, Fall: 20 * time.Second}
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 3},
		{59 * time.Second, 3},
		{65 * time.Second, 21.5}, // halfway up the ramp
		{70 * time.Second, 40},
		{99 * time.Second, 40},
		{110 * time.Second, 21.5}, // halfway down
		{3 * time.Minute, 3},
	}
	for _, tc := range cases {
		if r := f.Rate(tc.at); !approx(r, tc.want) {
			t.Errorf("flash crowd at %s = %g, want %g", tc.at, r, tc.want)
		}
	}

	if r := (Steady{RPS: 7}).Rate(time.Hour); !approx(r, 7) {
		t.Errorf("steady = %g, want 7", r)
	}
}

func TestTopologyPlacement(t *testing.T) {
	topo := Atlantic3()
	if got := topo.Managers(); got != 3 {
		t.Fatalf("managers = %d, want 3", got)
	}
	if got := topo.Hosts(); got != 5 {
		t.Fatalf("hosts = %d, want 5", got)
	}
	// Placement is region by region in declaration order.
	if got := topo.RegionOf("m0"); got != USEast {
		t.Errorf("m0 in %q, want %s", got, USEast)
	}
	if got := topo.RegionOf("m1"); got != EUWest {
		t.Errorf("m1 in %q, want %s", got, EUWest)
	}
	if got := topo.RegionOf("h2"); got != EUWest {
		t.Errorf("h2 in %q, want %s", got, EUWest)
	}
	if got := topo.RegionOf("h4"); got != EUCentral {
		t.Errorf("h4 in %q, want %s", got, EUCentral)
	}
	if got := topo.RegionOf("stranger"); got != "" {
		t.Errorf("unknown node in %q, want empty", got)
	}
	if got := topo.ManagersIn(EUWest); len(got) != 1 || got[0] != "m1" {
		t.Errorf("ManagersIn(eu-west) = %v", got)
	}
	if got := topo.HostsIn(USEast); len(got) != 2 || got[0] != "h0" || got[1] != "h1" {
		t.Errorf("HostsIn(us-east) = %v", got)
	}

	// The matrix prices directions asymmetrically around the baseline.
	m := topo.Matrix()
	fwd := m.Link("m0", "m1") // us-east → eu-west: lexicographically later source, fast skew
	rev := m.Link("m1", "m0") // eu-west → us-east: slow skew
	fln, ok := fwd.(simnet.LogNormal)
	if !ok {
		t.Fatalf("matrix model is %T, want LogNormal", fwd)
	}
	rln := rev.(simnet.LogNormal)
	base := BaseDelay(USEast, EUWest)
	if fln.Scale >= base || rln.Scale <= base {
		t.Errorf("asymmetry wrong: fwd=%v rev=%v base=%v", fln.Scale, rln.Scale, base)
	}
	if fln.Scale == rln.Scale {
		t.Error("directions priced identically")
	}
}

// TestMatrixSendAllocationBudget is simnet's TestSendAllocationBudget with
// a catalog topology's RTT matrix pricing the links, the configuration
// every scenario runs under: resolving the two ends' regions and sampling
// the link's model must cost no allocation per message. Budget: 0.
func TestMatrixSendAllocationBudget(t *testing.T) {
	topo := Global9()
	sched := simnet.NewScheduler()
	n := simnet.New(sched, simnet.Config{LinkLatency: topo.Matrix()})
	nodes := topo.AllNodes()
	for _, id := range nodes {
		n.Attach(id, simnet.HandlerFunc(func(wire.NodeID, wire.Message) {}))
	}
	var msg wire.Message = wire.Query{App: "app", User: "u", Right: wire.RightUse, Nonce: 7}
	round := func() {
		for i, from := range nodes {
			n.Send(from, nodes[(i+5)%len(nodes)], msg)
		}
		sched.Run(0)
	}
	round() // warm the event pool and the heap's backing array
	if allocs := testing.AllocsPerRun(100, round); allocs > 0 {
		t.Errorf("%d sends + deliveries across global9 allocate %.1f objects, budget is 0", len(nodes), allocs)
	}
}

// TestSamplerUserIDs: a drawn rank is named "u<rank>" whichever way the id is
// made. A seeded rank's id is the one AuthorizedUsers made and costs nothing;
// any other rank's is formatted in one allocation.
func TestSamplerUserIDs(t *testing.T) {
	for _, rank := range []int{0, 7, 63, 64, 99, 100, 12345, 1999999} {
		if got, want := userID(rank), wire.UserID("u"+strconv.Itoa(rank)); got != want {
			t.Errorf("userID(%d) = %q, want %q", rank, got, want)
		}
	}
	pop := Population{Users: 10000, ZipfS: 1.2, Authorized: 64}
	users := pop.AuthorizedUsers()
	a, b := pop.sampler(rand.New(rand.NewSource(1)), users), pop.sampler(rand.New(rand.NewSource(1)), users)
	for range 2000 {
		rank := int(b.zipf.Uint64())
		if got, want := a.draw(), wire.UserID("u"+strconv.Itoa(rank)); got != want {
			t.Fatalf("draw = %q, want rank %d's id %q", got, rank, want)
		}
	}
	var id wire.UserID
	if allocs := testing.AllocsPerRun(100, func() { id = userID(12345) }); allocs != 1 {
		t.Errorf("userID of an unseeded rank allocates %.0f objects, want 1", allocs)
	}
	seeded := &sampler{zipf: rand.NewZipf(rand.New(rand.NewSource(1)), 1.2, 1, 63), users: users}
	if allocs := testing.AllocsPerRun(100, func() { id = seeded.draw() }); allocs != 0 {
		t.Errorf("drawing a seeded rank allocates %.0f objects, want 0", allocs)
	}
	_ = id
}
