package trace

import (
	"math"
	"time"
)

// Epoch turns the times a Collector's or a flight journal's records carry
// into offsets from the first one it is handed, so a record stores 8 bytes
// where a time.Time takes 24. An
// offset is the wall-clock difference in nanoseconds, and Time gives back
// the wall reading it stands for exactly, in the epoch's Location, within
// ±292 years of the epoch; a monotonic reading is not kept. (acl's tables
// keep theirs, because their deadlines are compared as Before compares.)
type Epoch struct{ t time.Time }

// Never is the offset of the zero time; no other time's offset reaches it.
const Never = math.MaxInt64

// Offset returns t as an offset, its whole seconds clamped so none overflows.
func (e *Epoch) Offset(t time.Time) int64 {
	if t.IsZero() {
		return Never
	}
	if e.t.IsZero() {
		e.t = t.Round(0)
	}
	const limit = Never/int64(time.Second) - 1
	s := min(max(t.Unix()-e.t.Unix(), -limit), limit)
	return s*1e9 + int64(t.Nanosecond()-e.t.Nanosecond())
}

// Time rebuilds the time an offset stands for.
func (e *Epoch) Time(d int64) time.Time {
	if d == Never {
		return time.Time{}
	}
	return e.t.Add(time.Duration(d))
}
