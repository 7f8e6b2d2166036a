package harness

import (
	"os"
	"testing"
	"time"

	"wanac/internal/flight"
)

// badScenario is a hand-scripted known-bad run: a drifting host caches an
// inflated grant, a partition hides the subsequent revocation (whose notice
// is also dropped), an unauthorized user slips through on default-allow, and
// long after the Te bound the host still serves the revoked user from cache.
// With Options{InflateTe, DropRevokeNotices} the revocation-safety oracle
// must fire.
func badScenario() Scenario {
	return Scenario{
		Seed: 424242,
		Params: Params{
			Managers: 3, CheckQuorum: 2, Hosts: 1, Users: 4,
			Te: 30 * time.Second, MaxAttempts: 2, DefaultAllow: true,
			ClockBound: 0.8, HostClockRates: []float64{0.8},
			Latency:      "fixed",
			QueryTimeout: time.Second, UpdateRetry: 2 * time.Second,
			Horizon: 2 * time.Minute,
		},
		Events: []Event{
			// Early quorum checks: cache u0's (inflated) grant and give the
			// clock aligner trace-matched query anchors spread over 7s.
			{At: 5 * time.Second, Kind: EvCheck, User: 0, Host: 0},
			{At: 12 * time.Second, Kind: EvCheck, User: 2, Host: 0},
			// The partition that will hide the revocation from the host.
			{At: 20 * time.Second, Kind: EvPartitionHost, Host: 0, Mgrs: []int{0, 1, 2}},
			// The revocation: reaches manager quorum, but the notice is
			// dropped and the host is unreachable.
			{At: 30 * time.Second, Kind: EvRevoke, User: 0, Mgr: 0},
			// Unauthorized u1 behind the partition: default-allow leaks.
			{At: 45 * time.Second, Kind: EvCheck, User: 1, Host: 0},
			// A late manager-side quorum whose RAW timestamp precedes the
			// host's next record (the host clock runs at 0.8, so local 95s
			// reads 76s): only clock alignment orders these correctly.
			{At: 85 * time.Second, Kind: EvRevoke, User: 2, Mgr: 0},
			// Far past Te: the inflated cache entry still allows revoked u0.
			{At: 95 * time.Second, Kind: EvCheck, User: 0, Host: 0},
		},
	}
}

// TestFlightDumpExplainsKnownBadSeed is the end-to-end forensics check: the
// scripted failure must produce a merged multi-node flight dump whose
// reconstructed timeline shows the partition, the revocation quorum, the
// default-allow leak, and the stale allow in causal order across at least
// three nodes, despite the host clock running 20% slow. The stale allow is a
// cache hit, which the host's ring does not hold: it is the cache-hit record
// the dump folds in from the host's audit ring.
func TestFlightDumpExplainsKnownBadSeed(t *testing.T) {
	sc := badScenario()
	opt := Options{InflateTe: true, DropRevokeNotices: true}
	res, err := RunScenario(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Fatal("known-bad scenario did not trip any oracle")
	}
	if res.Flight == nil {
		t.Fatal("failed run did not capture a flight dump")
	}

	// The dump travels as an artifact file; read it back the way acflight
	// would, so the whole pipeline (write, parse, align, order) is on trial.
	t.Setenv("WANAC_ARTIFACTS", t.TempDir())
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
	dump, err := flight.ReadDump(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	tl := flight.BuildTimeline(dump)

	// Locate the story beats on the aligned timeline.
	var (
		cutAt, revokeAt, defaultAt, staleAt time.Time
		haveCut, haveRevoke, haveDefault    bool
		haveStale, haveMark                 bool
		nodes                               = map[string]bool{}
	)
	for _, e := range tl.Entries {
		r := e.Rec
		nodes[r.Node] = true
		switch {
		case r.Node == "net" && r.Type == "link-cut" && !haveCut:
			cutAt, haveCut = e.At, true
		case r.Type == "update-quorum" && r.User == "u0" && !haveRevoke:
			revokeAt, haveRevoke = e.At, true
		case r.Node == "h0" && r.Type == "access-default" && r.User == "u1" && !haveDefault:
			defaultAt, haveDefault = e.At, true
		case r.Node == "h0" && r.Type == "cache-hit" && r.User == "u0" && haveRevoke:
			staleAt, haveStale = e.At, true
		case r.Node == "oracle" && r.Type == "oracle-violation":
			haveMark = true
		}
	}
	if !haveCut || !haveRevoke || !haveDefault || !haveStale {
		t.Fatalf("timeline missing story beats: cut=%v revoke=%v default=%v stale=%v",
			haveCut, haveRevoke, haveDefault, haveStale)
	}
	if !haveMark {
		t.Error("timeline has no oracle-violation mark record")
	}
	if !(cutAt.Before(revokeAt) && revokeAt.Before(defaultAt) && defaultAt.Before(staleAt)) {
		t.Errorf("causal order broken on aligned timeline:\n cut     %v\n revoke  %v\n default %v\n stale   %v",
			cutAt, revokeAt, defaultAt, staleAt)
	}
	realNodes := 0
	for n := range nodes {
		if n != "oracle" && n != "net" {
			realNodes++
		}
	}
	if realNodes < 3 {
		t.Errorf("timeline spans %d protocol nodes, want >= 3 (got %v)", realNodes, nodes)
	}

	// The drift must have been recovered, not ignored: the host's raw
	// clock reads 76s at the stale allow while the second revocation's
	// quorum stamps ~85s — raw order is inverted, aligned order must not be.
	var lateQuorumRaw, staleRaw time.Time
	var lateQuorumAl, staleAl time.Time
	for _, e := range tl.Entries {
		r := e.Rec
		if r.Type == "update-quorum" && r.User == "u2" && lateQuorumRaw.IsZero() {
			lateQuorumRaw, lateQuorumAl = r.T, e.At
		}
		if r.Node == "h0" && r.Type == "cache-hit" && r.User == "u0" && e.At.Equal(staleAt) {
			staleRaw, staleAl = r.T, e.At
		}
	}
	if lateQuorumRaw.IsZero() || staleRaw.IsZero() {
		t.Fatal("drift-inversion records not found")
	}
	if !staleRaw.Before(lateQuorumRaw) {
		t.Fatalf("scenario no longer produces a raw-clock inversion (stale raw %v, quorum raw %v)",
			staleRaw, lateQuorumRaw)
	}
	if !lateQuorumAl.Before(staleAl) {
		t.Errorf("alignment failed to undo the drift inversion: quorum aligned %v, stale allow aligned %v",
			lateQuorumAl, staleAl)
	}
}

// TestSuiteEmbedsFlightDump checks RunSeeds attaches a dump path to every
// reported failure when bugs are injected.
func TestSuiteEmbedsFlightDump(t *testing.T) {
	t.Setenv("WANAC_ARTIFACTS", t.TempDir())
	report := RunSeeds(7, 3, Options{InflateTe: true, DropRevokeNotices: true}, 0, nil)
	if report.Passed() {
		t.Skip("injected bugs tripped no oracle on these seeds")
	}
	for _, f := range report.Failures {
		if f.FlightDump == "" {
			t.Errorf("seed %d failure has no flight dump", f.Seed)
			continue
		}
		fh, err := os.Open(f.FlightDump)
		if err != nil {
			t.Errorf("seed %d: %v", f.Seed, err)
			continue
		}
		d, err := flight.ReadDump(fh)
		fh.Close()
		if err != nil {
			t.Errorf("seed %d: dump does not parse: %v", f.Seed, err)
			continue
		}
		if len(d.Records) == 0 {
			t.Errorf("seed %d: empty flight dump", f.Seed)
		}
	}
}
