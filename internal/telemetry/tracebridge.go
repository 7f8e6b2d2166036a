package telemetry

import (
	"sync/atomic"

	"wanac/internal/trace"
)

// eventBridge wraps a trace.Tracer and counts every emitted event into a
// registry family, so simulated and live runs share one event taxonomy:
// the collector tracer used for experiments and the log tracer used by
// acnode both feed wanac_trace_events_total{type=...}.
type eventBridge struct {
	inner trace.PairTracer
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
		inner: trace.Pairs(inner),
		vec:   reg.CounterVec("wanac_trace_events_total", "Protocol trace events by type (see internal/trace).", "type"),
	}
}

// Emit implements trace.Tracer.
func (b *eventBridge) Emit(e trace.Event) {
	b.count(e.Type)
	b.inner.Emit(e)
}

// EmitPair implements trace.PairTracer: both events are counted and the
// pair is forwarded whole.
func (b *eventBridge) EmitPair(e trace.Event, typ trace.EventType, note string) {
	b.count(e.Type)
	b.count(typ)
	b.inner.EmitPair(e, typ, note)
}

func (b *eventBridge) count(t trace.EventType) {
	i := int(t)
	if i >= len(b.cache) {
		b.vec.With(t.String()).Inc()
		return
	}
	c := b.cache[i].Load()
	if c == nil {
		c = b.vec.With(t.String())
		b.cache[i].Store(c)
	}
	c.Inc()
}
