package flight

import (
	"testing"
	"time"

	"wanac/internal/trace"
	"wanac/internal/wire"
)

// benchRing is the window the benchmarks write into: acnode's default.
const benchRing = 4096

// fullRecorder returns a journal whose windows write has filled and wrapped,
// so a benchmark times the steady-state write: a slot overwritten in place.
func fullRecorder(write func(r *Recorder)) *Recorder {
	r := NewRecorder("n0", benchRing, nil)
	for range 2 * benchRing {
		write(r)
	}
	return r
}

// BenchmarkRecordCacheHit: a host's cache hit, the one record on the
// per-check hot path.
func BenchmarkRecordCacheHit(b *testing.B) {
	write := func(r *Recorder) { r.RecordCacheHit(t0, 7, "app", "u0", wire.RightUse, 2, time.Minute) }
	r := fullRecorder(write)
	b.ReportAllocs()
	for b.Loop() {
		write(r)
	}
}

// BenchmarkRecordResponse: a manager's query verdict, one per query served.
func BenchmarkRecordResponse(b *testing.B) {
	rec := Record{T: t0, Kind: KindResponse, Trace: 7, App: "app", User: "u0", Right: "use",
		Reason: ReasonQueryGranted, Peer: "h0", Origin: "m1", Counter: 3, Expire: time.Minute}
	write := func(r *Recorder) { r.Record(rec) }
	r := fullRecorder(write)
	b.ReportAllocs()
	for b.Loop() {
		write(r)
	}
}

// BenchmarkRecordEvent: a protocol event, a few per cold check.
func BenchmarkRecordEvent(b *testing.B) {
	e := trace.Event{Time: t0, Node: "h0", Type: trace.EventQuerySent, App: "app", User: "u0", Peer: "m1",
		Num: trace.Pair(1, 3), Trace: 7}
	write := func(r *Recorder) { r.RecordEvent(e) }
	r := fullRecorder(write)
	b.ReportAllocs()
	for b.Loop() {
		write(r)
	}
}
