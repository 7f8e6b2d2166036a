package scenario

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"wanac/internal/core"
	"wanac/internal/simnet"
	"wanac/internal/wire"
)

// overloadFlood builds the protected-vs-baseline experiment scenario: a
// sustained check flood far beyond the managers' service capacity, with
// admin revocations landing mid-flood. The protected variant runs the full
// stack (two-lane inbound queues, token-bucket admission with Busy/backoff,
// adaptive Te); the baseline serves the same flood through an unprioritized
// FIFO queue with no admission control.
func overloadFlood(name string, protected bool) *Scenario {
	cap := simnet.Capacity{
		ServiceTime: 10 * time.Millisecond, // 100 msg/s per manager
		QueueDepth:  64,
		LaneDepth:   256,
		FIFO:        !protected,
	}
	sc := New(name, "overload experiment").
		WithTopology(Atlantic3()).
		WithTe(30 * time.Second).
		// 150× the catalog's steady baseline of 2. It was 100× while a denied
		// check cost C+M queries over two rounds; at most M in one round
		// takes a larger flood to drown the unprotected managers as deeply.
		WithLoad(Steady{RPS: 300}).
		WithPopulation(Population{Users: 50_000, ZipfS: 1.05, Authorized: 32}).
		WithAdminChurn(15 * time.Second).
		WithManagerCapacity(cap).
		For(60 * time.Second)
	if protected {
		sc.WithOverload(core.OverloadConfig{
			RateLimit:  core.RateLimitConfig{AppRPS: 60, AppBurst: 30, HostRPS: 25, HostBurst: 10},
			AdaptiveTe: core.AdaptiveTeConfig{Max: 2 * time.Minute, Interval: 2 * time.Second},
		})
	}
	return sc
}

// TestOverloadProtectionBoundsRevocationLag is the tentpole proof: under a
// 150× check flood, the protected deployment keeps end-to-end revocation
// lag (submit → quorum → no host confirming) within the configured bound,
// while the identical unprotected deployment leaks — its update traffic
// drowns in the query flood, so revocations converge late or not at all.
func TestOverloadProtectionBoundsRevocationLag(t *testing.T) {
	prot := overloadFlood("overload-protected", true)
	resP, err := Run(prot, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resP.Failed() {
		for _, v := range resP.Violations {
			t.Errorf("violation: %s", v)
		}
		t.Fatal("protected overload run violated its oracles")
	}

	// The protection stack must actually have engaged, end to end.
	o := resP.Overload
	if o.QueriesShed == 0 {
		t.Error("no queries shed: admission control never engaged")
	}
	if o.BusyReplies == 0 || o.Backoffs == 0 {
		t.Errorf("hosts never backed off: busy=%d backoffs=%d", o.BusyReplies, o.Backoffs)
	}
	if o.Backoffs < o.BusyReplies {
		t.Errorf("backoffs (%d) < busy replies (%d): every Busy defers a round", o.Backoffs, o.BusyReplies)
	}
	if o.TeWidenings == 0 {
		t.Error("adaptive Te never widened under sustained shedding")
	}
	if peak := resP.EffectiveTePeak; peak <= prot.te() || peak > prot.Overload.AdaptiveTe.Max {
		t.Errorf("effective Te peak = %v, want in (%v, %v]", peak, prot.te(), prot.Overload.AdaptiveTe.Max)
	}
	if o.CapacityDrops[wire.LaneHigh] != 0 {
		t.Errorf("high-lane capacity drops = %d: control traffic must never be squeezed out", o.CapacityDrops[wire.LaneHigh])
	}

	// Every revocation converged, and within the stated bound: with the
	// adaptive controller on, that bound is AdaptiveTe.Max (grants may
	// legally carry expiry up to the widened Te).
	if resP.Revocations == 0 {
		t.Fatal("no revocations reached quorum in the protected run")
	}
	if len(resP.SubmitLags) != resP.Revocations {
		t.Fatalf("converged %d of %d revocations", len(resP.SubmitLags), resP.Revocations)
	}
	bound := prot.oracleTe() + prot.policy().QueryTimeout
	if resP.SubmitLagP99 > bound {
		t.Errorf("protected submit-lag p99 = %v, want <= %v", resP.SubmitLagP99, bound)
	}

	// The exported telemetry must agree exactly with the result totals —
	// same counters a live deployment would alert on.
	var buf bytes.Buffer
	if err := resP.Telemetry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exposition := buf.String()
	for _, want := range []string{
		fmt.Sprintf(`wanac_manager_queries_total{result="shed"} %d`, o.QueriesShed),
		fmt.Sprintf(`wanac_manager_te_widenings_total %d`, o.TeWidenings),
		fmt.Sprintf(`wanac_host_busy_replies_total %d`, o.BusyReplies),
		fmt.Sprintf(`wanac_host_backoffs_total %d`, o.Backoffs),
	} {
		if !strings.Contains(exposition, want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Baseline: same flood, same capacity, FIFO queue, no admission
	// control. The leak shows up as end-to-end revocation lag: updates and
	// acks queue behind (or are dropped with) the flood, so convergence
	// from submit blows past the protected run's.
	base := overloadFlood("overload-baseline", false)
	resB, err := Run(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resB.Overload.QueriesShed != 0 || resB.Overload.BusyReplies != 0 {
		t.Errorf("baseline unexpectedly shed: %+v", resB.Overload)
	}
	if resB.Overload.CapacityDrops[wire.LaneBulk] == 0 {
		t.Error("baseline never overflowed its inbound queue: flood too weak to prove anything")
	}
	leaked := resB.Revocations < resP.Revocations || // quorums never completed
		len(resB.SubmitLags) < len(resB.RevocationLags) || // converged fewer than measured
		resB.SubmitLagP99 > 2*resP.SubmitLagP99 // or converged late
	if !leaked {
		t.Errorf("baseline did not leak: base p99=%v n=%d/%d vs protected p99=%v n=%d",
			resB.SubmitLagP99, len(resB.SubmitLags), resB.Revocations,
			resP.SubmitLagP99, len(resP.SubmitLags))
	}
	t.Logf("protected: p99=%v lags=%v shed=%d busy=%d backoffs=%d widenings=%d tePeak=%v drops=%v",
		resP.SubmitLagP99, resP.SubmitLags, o.QueriesShed, o.BusyReplies, o.Backoffs,
		o.TeWidenings, resP.EffectiveTePeak, o.CapacityDrops)
	t.Logf("baseline:  p99=%v lags=%v revocations=%d drops=%v",
		resB.SubmitLagP99, resB.SubmitLags, resB.Revocations, resB.Overload.CapacityDrops)
}
