// Package scenario is a builder DSL for geo-realistic simulation scenarios:
// named region topologies with asymmetric inter-region RTT matrices, load
// generators (diurnal curves, flash crowds, Zipf popularity over millions of
// users), and gray failures (one-way partitions, slow-but-not-dead links,
// congestion bursts, correlated region outages). Every scenario attaches the
// four harness invariant oracles and is deterministic from a seed; cmd/acsim
// exposes the named catalog (`acsim list`, `acsim run <name>`).
package scenario

import (
	"fmt"
	"strings"
	"time"

	"wanac/internal/sim"
	"wanac/internal/simnet"
	"wanac/internal/wire"
)

// Region places a slice of the deployment in one named geographic region.
type Region struct {
	// Name must be one of the known region names (see baseRTT) so the RTT
	// matrix can price its links.
	Name string
	// Managers and Hosts are how many of each this region holds.
	Managers int
	Hosts    int
}

// Topology is a named placement of managers and hosts across regions.
// Node indices are assigned region by region in declaration order: the
// first region gets m0..m(k-1) and h0..h(j-1), the next region continues
// from there, matching sim.Build's naming.
type Topology struct {
	Name    string
	Regions []Region
}

// Managers returns the total manager count.
func (t Topology) Managers() int {
	n := 0
	for _, r := range t.Regions {
		n += r.Managers
	}
	return n
}

// Hosts returns the total host count.
func (t Topology) Hosts() int {
	n := 0
	for _, r := range t.Regions {
		n += r.Hosts
	}
	return n
}

// RegionNames lists the region names in declaration order.
func (t Topology) RegionNames() []string {
	names := make([]string, len(t.Regions))
	for i, r := range t.Regions {
		names[i] = r.Name
	}
	return names
}

// regionByNode is the placement as a table: every node's region. Matrix
// resolves latency classes from it once per run, not once per message.
func (t Topology) regionByNode() map[wire.NodeID]string {
	out := make(map[wire.NodeID]string, t.Managers()+t.Hosts())
	mi, hi := 0, 0
	for _, r := range t.Regions {
		for i := 0; i < r.Managers; i++ {
			out[sim.ManagerID(mi)] = r.Name
			mi++
		}
		for i := 0; i < r.Hosts; i++ {
			out[sim.HostID(hi)] = r.Name
			hi++
		}
	}
	return out
}

// RegionOf maps a node to its region name ("" for unknown nodes, e.g. the
// harness agent, which the matrix prices at its default).
func (t Topology) RegionOf(id wire.NodeID) string { return t.regionByNode()[id] }

// ManagersIn returns the manager node ids placed in the named region.
func (t Topology) ManagersIn(region string) []wire.NodeID {
	var out []wire.NodeID
	mi := 0
	for _, r := range t.Regions {
		if r.Name == region {
			for i := 0; i < r.Managers; i++ {
				out = append(out, sim.ManagerID(mi+i))
			}
		}
		mi += r.Managers
	}
	return out
}

// HostsIn returns the host node ids placed in the named region.
func (t Topology) HostsIn(region string) []wire.NodeID {
	var out []wire.NodeID
	hi := 0
	for _, r := range t.Regions {
		if r.Name == region {
			for i := 0; i < r.Hosts; i++ {
				out = append(out, sim.HostID(hi+i))
			}
		}
		hi += r.Hosts
	}
	return out
}

// NodesIn returns every node (managers then hosts) in the named region.
func (t Topology) NodesIn(region string) []wire.NodeID {
	return append(t.ManagersIn(region), t.HostsIn(region)...)
}

// AllNodes returns every node in the topology, managers then hosts.
func (t Topology) AllNodes() []wire.NodeID {
	var out []wire.NodeID
	for i := 0; i < t.Managers(); i++ {
		out = append(out, sim.ManagerID(i))
	}
	for i := 0; i < t.Hosts(); i++ {
		out = append(out, sim.HostID(i))
	}
	return out
}

// String renders the placement compactly, e.g.
// "atlantic3: us-east{1m,2h} eu-west{1m,2h} eu-central{1m,1h}".
func (t Topology) String() string {
	parts := make([]string, len(t.Regions))
	for i, r := range t.Regions {
		parts[i] = fmt.Sprintf("%s{%dm,%dh}", r.Name, r.Managers, r.Hosts)
	}
	return t.Name + ": " + strings.Join(parts, " ")
}

// Known region names and their pairwise base one-way delays. The table is
// the symmetric geographic baseline in milliseconds (roughly half of
// measured public-cloud inter-region RTTs); Matrix skews it per direction
// so A→B ≠ B→A, modelling asymmetric routing.
const (
	USEast      = "us-east"
	USWest      = "us-west"
	EUWest      = "eu-west"
	EUCentral   = "eu-central"
	APSouth     = "ap-south"
	APNortheast = "ap-northeast"
	APSoutheast = "ap-southeast"
	SAEast      = "sa-east"
	AFSouth     = "af-south"
)

// intraRegionMS is the one-way delay between nodes sharing a region.
const intraRegionMS = 2

// baseRTT holds the one-way baseline in ms per unordered region pair,
// keyed with the lexicographically smaller name first.
var baseRTT = map[[2]string]int{
	pairKey(USEast, USWest):           35,
	pairKey(USEast, EUWest):           40,
	pairKey(USEast, EUCentral):        45,
	pairKey(USEast, APSouth):          95,
	pairKey(USEast, APNortheast):      85,
	pairKey(USEast, APSoutheast):      105,
	pairKey(USEast, SAEast):           60,
	pairKey(USEast, AFSouth):          110,
	pairKey(USWest, EUWest):           70,
	pairKey(USWest, EUCentral):        75,
	pairKey(USWest, APSouth):          110,
	pairKey(USWest, APNortheast):      55,
	pairKey(USWest, APSoutheast):      85,
	pairKey(USWest, SAEast):           90,
	pairKey(USWest, AFSouth):          140,
	pairKey(EUWest, EUCentral):        10,
	pairKey(EUWest, APSouth):          60,
	pairKey(EUWest, APNortheast):      115,
	pairKey(EUWest, APSoutheast):      90,
	pairKey(EUWest, SAEast):           95,
	pairKey(EUWest, AFSouth):          75,
	pairKey(EUCentral, APSouth):       55,
	pairKey(EUCentral, APNortheast):   120,
	pairKey(EUCentral, APSoutheast):   85,
	pairKey(EUCentral, SAEast):        100,
	pairKey(EUCentral, AFSouth):       80,
	pairKey(APSouth, APNortheast):     60,
	pairKey(APSouth, APSoutheast):     25,
	pairKey(APSouth, SAEast):          150,
	pairKey(APSouth, AFSouth):         120,
	pairKey(APNortheast, APSoutheast): 35,
	pairKey(APNortheast, SAEast):      130,
	pairKey(APNortheast, AFSouth):     175,
	pairKey(APSoutheast, SAEast):      160,
	pairKey(APSoutheast, AFSouth):     130,
	pairKey(SAEast, AFSouth):          170,
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// BaseDelay returns the symmetric baseline one-way delay between two
// regions (intraRegionMS within a region, the matrix default for unknown
// pairs).
func BaseDelay(a, b string) time.Duration {
	if a == b {
		return intraRegionMS * time.Millisecond
	}
	if ms, ok := baseRTT[pairKey(a, b)]; ok {
		return time.Duration(ms) * time.Millisecond
	}
	return 10 * time.Millisecond
}

// Per-direction skew applied to the symmetric baseline: the lexicographically
// smaller→larger direction runs 8% slow, the reverse 8% fast, so every
// inter-region link is measurably asymmetric while the pair's mean stays on
// the baseline.
const (
	skewSlow = 1.08
	skewFast = 0.92
)

// DirectionalDelay returns the skewed median one-way delay from region a to
// region b.
func DirectionalDelay(a, b string) time.Duration {
	base := BaseDelay(a, b)
	if a == b {
		return base
	}
	skew := skewSlow
	if a > b {
		skew = skewFast
	}
	return time.Duration(float64(base) * skew)
}

// linkSigma is the log-normal dispersion of each link: most messages land
// near the median, a few straggle, none beyond 5× (the cap).
const linkSigma = 0.15

// Matrix builds the per-directed-link latency model for this topology:
// every ordered region pair gets a log-normal distribution around its
// skewed directional median, capped at 5× so stragglers stay bounded; links
// to nodes outside the topology get the same shape around 10ms.
func (t Topology) Matrix() *simnet.Matrix {
	return simnet.NewMatrix(t.regionByNode(), func(a, b string) simnet.LatencyModel {
		med := 10 * time.Millisecond
		if a != "" && b != "" {
			med = DirectionalDelay(a, b)
		}
		return simnet.LogNormal{Scale: med, Sigma: linkSigma, Cap: 5 * med}
	})
}

// Named topologies used by the catalog.

// Atlantic3 spans the north Atlantic: three regions, one manager each,
// hosts concentrated on the two coasts.
func Atlantic3() Topology {
	return Topology{Name: "atlantic3", Regions: []Region{
		{Name: USEast, Managers: 1, Hosts: 2},
		{Name: EUWest, Managers: 1, Hosts: 2},
		{Name: EUCentral, Managers: 1, Hosts: 1},
	}}
}

// Global5 is a five-region worldwide deployment with M=5 managers.
func Global5() Topology {
	return Topology{Name: "global5", Regions: []Region{
		{Name: USEast, Managers: 1, Hosts: 2},
		{Name: USWest, Managers: 1, Hosts: 1},
		{Name: EUWest, Managers: 1, Hosts: 2},
		{Name: APNortheast, Managers: 1, Hosts: 1},
		{Name: APSouth, Managers: 1, Hosts: 1},
	}}
}

// Global9 places one manager and one host in each of the nine known
// regions — the widest topology the RTT table prices.
func Global9() Topology {
	return Topology{Name: "global9", Regions: []Region{
		{Name: USEast, Managers: 1, Hosts: 1},
		{Name: USWest, Managers: 1, Hosts: 1},
		{Name: EUWest, Managers: 1, Hosts: 1},
		{Name: EUCentral, Managers: 1, Hosts: 1},
		{Name: APSouth, Managers: 1, Hosts: 1},
		{Name: APNortheast, Managers: 1, Hosts: 1},
		{Name: APSoutheast, Managers: 1, Hosts: 1},
		{Name: SAEast, Managers: 1, Hosts: 1},
		{Name: AFSouth, Managers: 1, Hosts: 1},
	}}
}
