package netcore

import (
	"wanac/internal/telemetry"
	"wanac/internal/wire"
)

// RegisterTransport re-exports a transport's stats through a telemetry
// registry: monotonic counters (sends, drops, dials, reconnects, bytes)
// as func-backed counters, queue depth and per-state peer tallies as
// gauges, and every peer's individual state as a
// wanac_transport_peer_state{peer,state} snapshot set. All families read
// through the same stats snapshot function that backs the expvar
// payload, so /metrics and /debug/vars agree by construction; they are
// the only two places a node publishes its transport numbers.
//
// stats is typically Transport.Stats (tcpnet/udpnet) or Group.Stats.
func RegisterTransport(reg *telemetry.Registry, stats func() TransportStats) {
	counters := []struct {
		name, help string
		get        func(TransportStats) float64
	}{
		{"wanac_transport_sends_total", "Send calls.",
			func(st TransportStats) float64 { return float64(st.Sends) }},
		{"wanac_transport_drops_total", "Frames dropped on the outbound path (overflow, unknown peer, dial failure, drain deadline).",
			func(st TransportStats) float64 { return float64(st.Drops) }},
		{"wanac_transport_dials_total", "Connection attempts.",
			func(st TransportStats) float64 { return float64(st.Dials) }},
		{"wanac_transport_dial_failures_total", "Failed connection attempts.",
			func(st TransportStats) float64 { return float64(st.DialFailures) }},
		{"wanac_transport_reconnects_total", "Re-established connections to previously up peers.",
			func(st TransportStats) float64 { return float64(st.Reconnects) }},
		{"wanac_transport_bytes_in_total", "Frame bytes received.",
			func(st TransportStats) float64 { return float64(st.BytesIn) }},
		{"wanac_transport_bytes_out_total", "Frame bytes written.",
			func(st TransportStats) float64 { return float64(st.BytesOut) }},
	}
	for _, c := range counters {
		get := c.get
		reg.CounterFunc(c.name, c.help, func() float64 { return get(stats()) })
	}
	gauges := []struct {
		name, help string
		get        func(TransportStats) float64
	}{
		{"wanac_transport_queue_depth", "Frames currently queued across peers.",
			func(st TransportStats) float64 { return float64(st.QueueDepth) }},
		{"wanac_transport_peers_up", "Peers in the up state.",
			func(st TransportStats) float64 { return float64(st.PeersUp) }},
		{"wanac_transport_peers_connecting", "Peers in the connecting state.",
			func(st TransportStats) float64 { return float64(st.PeersConnecting) }},
		{"wanac_transport_peers_backoff", "Peers in the backoff state.",
			func(st TransportStats) float64 { return float64(st.PeersBackoff) }},
	}
	for _, g := range gauges {
		get := g.get
		reg.GaugeFunc(g.name, g.help, func() float64 { return get(stats()) })
	}
	laneCounters := []struct {
		name, help string
		get        func(TransportStats, int) float64
	}{
		{"wanac_transport_lane_enqueued_total", "Messages enqueued per priority lane.",
			func(st TransportStats, ln int) float64 { return float64(st.LaneEnqueued[ln]) }},
		{"wanac_transport_lane_delivered_total", "Messages delivered per priority lane.",
			func(st TransportStats, ln int) float64 { return float64(st.LaneDelivered[ln]) }},
		{"wanac_transport_lane_drops_total", "Messages dropped per priority lane.",
			func(st TransportStats, ln int) float64 { return float64(st.LaneDrops[ln]) }},
	}
	lanes := [2]string{wire.LaneBulk.String(), wire.LaneHigh.String()}
	for _, c := range laneCounters {
		vec := reg.CounterVec(c.name, c.help, "lane")
		for ln, label := range lanes {
			ln, get := ln, c.get
			vec.WithFunc(func() float64 { return get(stats(), ln) }, label)
		}
	}
	depthVec := reg.GaugeVec("wanac_transport_lane_depth",
		"Frames currently queued per priority lane across peers.", "lane")
	for ln, label := range lanes {
		ln := ln
		depthVec.WithFunc(func() float64 { return float64(stats().LaneDepths[ln]) }, label)
	}
	reg.GaugeSet("wanac_transport_peer_state",
		"Per-peer connection state (1 for the current state).",
		[]string{"peer", "state"},
		func(emit func([]string, float64)) {
			for peer, state := range stats().Peers {
				emit([]string{peer, state}, 1)
			}
		})
	reg.CounterFunc("netcore_batches_out_total",
		"Coalesced writer flushes (one wire write each).",
		func() float64 { return float64(stats().BatchesOut) })
	bounds := append([]float64(nil), BatchFrameBounds[:]...)
	reg.HistogramFunc("netcore_batch_frames",
		"Frames put on the wire per coalesced writer flush.", bounds,
		func() telemetry.HistogramSnapshot {
			st := stats()
			counts := st.BatchFrames
			if len(counts) != len(bounds)+1 {
				// Defensive: a stats source that predates batching renders as
				// an empty histogram instead of panicking the scrape.
				counts = make([]uint64, len(bounds)+1)
			}
			var count uint64
			for _, c := range counts {
				count += c
			}
			return telemetry.HistogramSnapshot{
				Upper:  bounds,
				Counts: counts,
				Count:  count,
				Sum:    float64(st.BatchFramesSum),
			}
		})
}
