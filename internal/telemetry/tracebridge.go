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
type eventBridge struct {
	inner trace.Tracer
	vec   CounterVec
	// cache holds pre-resolved per-type counters so the Emit hot path
	// never calls With (which locks and allocates). EventType is a small
	// uint8; types beyond the cache fall back to With.
	cache [64]atomic.Pointer[Counter]
}

// InstrumentTracer returns a tracer that forwards every event to inner
// after counting it in reg as wanac_trace_events_total{type=...}.
func InstrumentTracer(reg *Registry, inner trace.Tracer) trace.Tracer {
	return &eventBridge{
		inner: inner,
		vec:   reg.CounterVec("wanac_trace_events_total", "Protocol trace events by type (see internal/trace).", "type"),
	}
}

// Emit implements trace.Tracer.
func (b *eventBridge) Emit(e trace.Event) {
	if i := int(e.Type); i < len(b.cache) {
		c := b.cache[i].Load()
		if c == nil {
			c = b.vec.With(e.Type.String())
			b.cache[i].Store(c)
		}
		c.Inc()
	} else {
		b.vec.With(e.Type.String()).Inc()
	}
	b.inner.Emit(e)
}
