package main

import (
	"fmt"
	"time"

	"wanac"
	"wanac/internal/audit"
	"wanac/internal/core"
	"wanac/internal/flight"
	"wanac/internal/netcore"
	"wanac/internal/telemetry"
	"wanac/internal/wire"
)

const (
	benchApp   wire.AppID  = "bench"
	benchAdmin wire.UserID = "root"
	checkC                 = 2 // check quorum C of M=3
	// ringSize matches cmd/acnode's flight and audit ring defaults.
	ringSize = 4096
)

// node is one protocol node wired the way cmd/acnode wires it: its own
// loopback socket, a telemetry registry with the transport re-exported, the
// event-counting tracer teed into a flight ring, instrumented handles and an
// audit ring — plus the two seams of seam.go.
type node struct {
	id   wire.NodeID
	tr   wanac.Transport
	seam *seam
	host *core.Host
	mgr  *core.Manager
}

// deployment is 3 managers + 2 hosts in this process. No delay is injected:
// latencies are processor and kernel time on loopback.
type deployment struct {
	mgrs  [numManagers]*node
	hosts [numHosts]*node
}

func (d *deployment) nodes() []*node {
	out := make([]*node, 0, numNodes)
	for _, n := range d.mgrs {
		out = append(out, n)
	}
	for _, n := range d.hosts {
		out = append(out, n)
	}
	return out
}

func listenNode(network string, id wire.NodeID) (*node, *telemetry.Registry, *flight.Recorder, error) {
	rec := flight.NewRecorder(string(id), ringSize, nil)
	tr, err := wanac.Listen(network, id, "127.0.0.1:0",
		wanac.WithPeerStateSink(func(peer wire.NodeID, state string) {
			rec.Record(flight.Record{Kind: flight.KindTransport, Type: state, Peer: string(peer)})
		}))
	if err != nil {
		return nil, nil, nil, err
	}
	reg := telemetry.NewRegistry()
	telemetry.RegisterBuildInfo(reg)
	netcore.RegisterTransport(reg, tr.Stats)
	return &node{id: id, tr: tr, seam: &seam{inner: tr, node: nodeCode(id)}}, reg, rec, nil
}

// deploy starts the five nodes, seeds every manager with the admin and the
// given users, and points every node at the managers' addresses (hosts are
// reached over the connections they open, as with acnode's -peers).
func deploy(network string, te time.Duration, seeded []wire.UserID,
	notice func(host uint8, m wire.RevokeNotice, at time.Time)) (*deployment, error) {
	d := &deployment{}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	mgrIDs := make([]wire.NodeID, numManagers)
	for i := range mgrIDs {
		mgrIDs[i] = wire.NodeID(fmt.Sprintf("m%d", i))
	}
	for i, id := range mgrIDs {
		n, reg, rec, err := listenNode(network, id)
		if err != nil {
			return nil, err
		}
		d.mgrs[i] = n
		tracer := telemetry.InstrumentTracer(reg, flight.Tee(rec, nil))
		n.mgr = core.NewManager(id, n.seam, tracer, nil)
		if err := n.mgr.AddApp(benchApp, core.ManagerAppConfig{
			Peers: mgrIDs, CheckQuorum: checkC, Te: te,
		}); err != nil {
			return nil, err
		}
		n.mgr.Seed(benchApp, benchAdmin, wire.RightManage)
		for _, u := range seeded {
			n.mgr.Seed(benchApp, u, wire.RightUse)
		}
		core.InstrumentManager(reg, nil, n.mgr)
		n.mgr.SetAudit(audit.NewRecorder(string(id), ringSize, nil))
		n.seam.handler = n.mgr
		n.tr.SetHandler(n.seam)
	}
	for i := range d.hosts {
		id := wire.NodeID(fmt.Sprintf("h%d", i))
		n, reg, rec, err := listenNode(network, id)
		if err != nil {
			return nil, err
		}
		d.hosts[i] = n
		tracer := telemetry.InstrumentTracer(reg, flight.Tee(rec, nil))
		n.host = core.NewHost(id, n.seam, tracer, nil)
		if err := n.host.RegisterApp(benchApp, core.HostAppConfig{
			Managers: mgrIDs,
			Policy: core.Policy{
				CheckQuorum: checkC, Te: te,
				QueryTimeout: 2 * time.Second, MaxAttempts: 3,
			},
		}); err != nil {
			return nil, err
		}
		core.InstrumentHost(reg, nil, n.host)
		n.host.SetAudit(audit.NewRecorder(string(id), ringSize, nil))
		n.seam.handler, n.seam.notice = n.host, notice
		n.tr.SetHandler(n.seam)
	}
	for _, n := range d.nodes() {
		for _, m := range d.mgrs {
			if m.id == n.id {
				continue
			}
			if err := n.tr.AddPeer(m.id, m.tr.Addr()); err != nil {
				return nil, err
			}
		}
	}
	ok = true
	return d, nil
}

// close shuts every node down; each Close waits for its goroutines.
func (d *deployment) close() {
	for _, n := range d.nodes() {
		if n != nil {
			n.tr.Close()
		}
	}
}

// attach installs (or, with nil, removes) the tracer on every seam.
func (d *deployment) attach(t *tracer) {
	for _, n := range d.nodes() {
		n.seam.tr.Store(t)
	}
}

// counters is the sum of what the nodes' public Stats() report, taken at
// the two ends of a window.
type counters struct {
	host   core.HostStats // summed over hosts (CacheLen: summed)
	mgr    core.ManagerStats
	net    netcore.TransportStats // summed over all five nodes
	timers uint64
}

func (d *deployment) counters() counters {
	var c counters
	for _, n := range d.hosts {
		st := n.host.Stats()
		c.host.Checks += st.Checks
		c.host.CacheHits += st.CacheHits
		c.host.QueryRounds += st.QueryRounds
		c.host.QueryTimeouts += st.QueryTimeouts
		c.host.RevokeNotices += st.RevokeNotices
		c.host.CacheLen += st.CacheLen
	}
	for _, n := range d.mgrs {
		st := n.mgr.Stats()
		c.mgr.QueriesServed += st.QueriesServed
		c.mgr.QueriesShed += st.QueriesShed
		c.mgr.UpdatesStale += st.UpdatesStale
	}
	for _, n := range d.nodes() {
		st := n.tr.Stats()
		c.net.Sends += st.Sends
		c.net.Drops += st.Drops
		c.net.BytesOut += st.BytesOut
		c.net.BatchesOut += st.BatchesOut
		for ln := range st.LaneEnqueued {
			c.net.LaneEnqueued[ln] += st.LaneEnqueued[ln]
			c.net.LaneDelivered[ln] += st.LaneDelivered[ln]
			c.net.LaneDrops[ln] += st.LaneDrops[ln]
		}
		c.timers += n.seam.timers.Load()
	}
	return c
}

// sub returns c - b for the monotonic counters; CacheLen stays current.
func (c counters) sub(b counters) counters {
	c.host.Checks -= b.host.Checks
	c.host.CacheHits -= b.host.CacheHits
	c.host.QueryRounds -= b.host.QueryRounds
	c.host.QueryTimeouts -= b.host.QueryTimeouts
	c.host.RevokeNotices -= b.host.RevokeNotices
	c.mgr.QueriesServed -= b.mgr.QueriesServed
	c.mgr.QueriesShed -= b.mgr.QueriesShed
	c.mgr.UpdatesStale -= b.mgr.UpdatesStale
	c.net.Sends -= b.net.Sends
	c.net.Drops -= b.net.Drops
	c.net.BytesOut -= b.net.BytesOut
	c.net.BatchesOut -= b.net.BatchesOut
	for ln := range c.net.LaneEnqueued {
		c.net.LaneEnqueued[ln] -= b.net.LaneEnqueued[ln]
		c.net.LaneDelivered[ln] -= b.net.LaneDelivered[ln]
		c.net.LaneDrops[ln] -= b.net.LaneDrops[ln]
	}
	c.timers -= b.timers
	return c
}
