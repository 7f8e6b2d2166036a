package scenario

import (
	"fmt"
	"time"

	"wanac/internal/core"
	"wanac/internal/harness"
	"wanac/internal/simnet"
)

// Catalog returns the named scenario gallery, in listing order. Every entry
// is deterministic from its seed and attaches all five harness oracles;
// only stale-allow-demo is expected to fail (it ships deliberate protocol
// bugs to reproduce partition → stale-allow on demand).
func Catalog() []*Scenario {
	return []*Scenario{
		New("steady-baseline",
			"clean run: steady traffic across the Atlantic, admin churn, no faults").
			WithTopology(Atlantic3()).
			WithLoad(Steady{RPS: 5}).
			WithPopulation(Population{Users: 10000, ZipfS: 1.2, Authorized: 64}).
			WithAdminChurn(30 * time.Second).
			For(2 * time.Minute),

		New("diurnal-wave",
			"day/night load swing over five regions with periodic revocations").
			WithTopology(Global5()).
			WithLoad(Diurnal{Base: 2, Peak: 12, Period: 2 * time.Minute}).
			WithPopulation(Population{Users: 50000, ZipfS: 1.15, Authorized: 96}).
			WithAdminChurn(45 * time.Second).
			For(4 * time.Minute),

		New("flash-crowd",
			"13× traffic spike under the availability-first policy (Figure 4)").
			WithTopology(Global5()).
			WithPolicy(core.AvailabilityFirst(3, 45*time.Second)).
			WithTe(45 * time.Second).
			WithLoad(FlashCrowd{Base: 3, Peak: 40, At: 60 * time.Second,
				Rise: 10 * time.Second, Sustain: 30 * time.Second, Fall: 20 * time.Second}).
			WithPopulation(Population{Users: 200000, ZipfS: 1.1, Authorized: 128}).
			For(3 * time.Minute),

		New("region-outage",
			"correlated whole-region manager blackout; quorum survives on the rest").
			WithTopology(Global5()).
			WithLoad(Steady{RPS: 6}).
			WithPopulation(Population{Users: 20000, ZipfS: 1.2, Authorized: 64}).
			WithAdminChurn(40 * time.Second).
			WithFaults(RegionOutage{Region: EUWest, At: 50 * time.Second, For: 40 * time.Second}).
			For(3 * time.Minute),

		New("oneway-blackout",
			"asymmetric partition: manager replies vanish while queries still arrive").
			WithTopology(Atlantic3()).
			WithLoad(Steady{RPS: 6}).
			WithPopulation(Population{Users: 10000, ZipfS: 1.2, Authorized: 64}).
			WithFaults(OneWayPartition{
				From: Nodes{Region: EUWest, Role: Managers},
				To:   Nodes{Region: USEast, Role: Hosts},
				At:   40 * time.Second, For: 40 * time.Second,
			}).
			For(2 * time.Minute),

		New("slow-brownout",
			"slow-but-not-dead transatlantic links: 15× latency, no packet loss").
			WithTopology(Global5()).
			WithLoad(Steady{RPS: 5}).
			WithPopulation(Population{Users: 20000, ZipfS: 1.2, Authorized: 64}).
			WithFaults(SlowLinks{A: USEast, B: EUWest, Factor: 15,
				At: 45 * time.Second, For: 45 * time.Second}).
			For(3 * time.Minute),

		New("congestion-storm",
			"recurring congestion bursts on one intercontinental path, nine regions").
			WithTopology(Global9()).
			WithLoad(Steady{RPS: 4}).
			WithPopulation(Population{Users: 100000, ZipfS: 1.1, Authorized: 96}).
			WithFaults(CongestionBurst{A: EUCentral, B: APNortheast,
				Loss: 0.3, Factor: 8, At: 45 * time.Second, For: 15 * time.Second,
				Repeat: 4, Every: 45 * time.Second}).
			For(4 * time.Minute),

		New("revoke-under-partition",
			"revocations racing a full region partition; bound must still hold").
			WithTopology(Atlantic3()).
			WithTe(45 * time.Second).
			WithLoad(Steady{RPS: 8}).
			WithPopulation(Population{Users: 10000, ZipfS: 1.2, Authorized: 64}).
			WithAdminChurn(20 * time.Second).
			WithFaults(RegionPartition{Region: EUWest, At: 40 * time.Second, For: 50 * time.Second}).
			For(3 * time.Minute),

		New("zipf-flood",
			"2M-user population, heavy-tail popularity, tight host caches").
			WithTopology(Global5()).
			WithLoad(Steady{RPS: 40}).
			WithPopulation(Population{Users: 2_000_000, ZipfS: 1.07, Authorized: 256}).
			WithCacheLimit(128).
			WithAdminChurn(30 * time.Second).
			For(3 * time.Minute),

		New("overload-100x",
			"100× check flood against finite-capacity managers; lanes + admission control + adaptive Te keep revocations converging").
			WithTopology(Atlantic3()).
			WithTe(30 * time.Second).
			WithLoad(FlashCrowd{Base: 2, Peak: 200, At: 40 * time.Second,
				Rise: 5 * time.Second, Sustain: 40 * time.Second, Fall: 10 * time.Second}).
			WithPopulation(Population{Users: 100_000, ZipfS: 1.05, Authorized: 48}).
			WithAdminChurn(20 * time.Second).
			WithManagerCapacity(simnet.Capacity{
				ServiceTime: 8 * time.Millisecond, QueueDepth: 64, LaneDepth: 256}).
			WithOverload(core.OverloadConfig{
				RateLimit:  core.RateLimitConfig{AppRPS: 60, AppBurst: 30, HostRPS: 25, HostBurst: 10},
				AdaptiveTe: core.AdaptiveTeConfig{Max: 2 * time.Minute, Interval: 2 * time.Second},
			}).
			For(2 * time.Minute),

		New("stale-allow-demo",
			"BROKEN on purpose: inflated Te + dropped revoke notices under partition → stale allows").
			WithTopology(Atlantic3()).
			WithTe(30 * time.Second).
			WithLoad(Steady{RPS: 6}).
			WithPopulation(Population{Users: 10000, ZipfS: 1.3, Authorized: 32}).
			WithAdminChurn(25 * time.Second).
			WithFaults(RegionPartition{Region: EUWest, At: 40 * time.Second, For: 60 * time.Second}).
			WithBreak(harness.Options{InflateTe: true, DropRevokeNotices: true}).
			For(150 * time.Second),
	}
}

// Lookup finds a catalog scenario by name.
func Lookup(name string) (*Scenario, error) {
	for _, sc := range Catalog() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return nil, fmt.Errorf("scenario: unknown scenario %q (see `acsim list`)", name)
}
