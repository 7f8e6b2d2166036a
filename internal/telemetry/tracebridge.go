package telemetry

import (
	"sync/atomic"

	"wanac/internal/trace"
)

// eventBridge wraps a trace.Tracer and counts every emitted event into a
// registry family, so simulated and live runs share one event taxonomy:
// the collector tracer used for experiments and the log tracer used by
// acnode both feed wanac_trace_events_total{type=...}. A cache hit is one
// cache-hit event, so {type="access-allowed"} counts quorum allows only.
//
// The bridge does not count cache-hit events: the host that makes the hits
// derives the cache-hit row from its own hit count (DeriveCacheHits), so the
// row cannot disagree with wanac_host_checks_total{outcome="cache_hit"}, and
// a hit builds an event only when something past the bridge keeps it.
type eventBridge struct {
	inner trace.Tracer
	vec   CounterVec
	// cache holds pre-resolved per-type counters so the Emit hot path
	// never calls With (which locks and allocates). EventType is a small
	// uint8; types beyond the cache fall back to With.
	cache [64]atomic.Pointer[Counter]
}

// InstrumentTracer returns a tracer that forwards every event to inner
// after counting it in reg as wanac_trace_events_total{type=...}; a cache
// hit is forwarded uncounted.
func InstrumentTracer(reg *Registry, inner trace.Tracer) trace.Tracer {
	return &eventBridge{
		inner: inner,
		vec:   reg.CounterVec("wanac_trace_events_total", "Protocol trace events by type (see internal/trace).", "type"),
	}
}

// DeriveCacheHits makes hits, a host's count of cache hits, the cache-hit
// row of wanac_trace_events_total when tr, the host's tracer, is a bridge
// from InstrumentTracer; otherwise it does nothing.
func DeriveCacheHits(tr trace.Tracer, hits *atomic.Uint64) {
	if b, ok := tr.(*eventBridge); ok {
		b.vec.With(trace.EventCacheHit.String()).Derive(hits)
	}
}

// Drops implements trace.Dropper: the bridge counts every type but a cache
// hit, and drops a hit when inner does.
func (b *eventBridge) Drops(t trace.EventType) bool {
	return t == trace.EventCacheHit && trace.Drops(b.inner, t)
}

// Emit implements trace.Tracer.
func (b *eventBridge) Emit(e trace.Event) {
	switch i := int(e.Type); {
	case e.Type == trace.EventCacheHit: // the host's count (DeriveCacheHits)
	case i < len(b.cache):
		c := b.cache[i].Load()
		if c == nil {
			c = b.vec.With(e.Type.String())
			b.cache[i].Store(c)
		}
		c.Inc()
	default:
		b.vec.With(e.Type.String()).Inc()
	}
	b.inner.Emit(e)
}
