package netcore

import "time"

// Clock is a live node's wall clock, the Now half of core.Env that tcpnet
// and udpnet nodes embed. It reads the system clock once: the epoch taken at
// start plus the monotonic time elapsed since, where time.Now reads two
// clocks. Deadlines compare monotonic readings either way, so the Te bound
// is unaffected; the trade-off is that exported wall timestamps do not
// follow a system-clock step made after start.
type Clock struct{ epoch time.Time }

// NewClock starts a clock at the current time.
func NewClock() Clock { return Clock{epoch: time.Now()} }

// Now returns the current time, monotonic reading included.
func (c Clock) Now() time.Time { return c.epoch.Add(time.Since(c.epoch)) }
