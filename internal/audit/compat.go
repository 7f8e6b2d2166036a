// Package audit keeps the names bench/ reaches the node journal
// (internal/flight) by, until the bench builds its nodes with the one node
// assembly (ROADMAP item 3), which deletes this package.
package audit

import "wanac/internal/flight"

// Record is a journal record.
type Record = flight.Record

// The decision kind and the cache-hit reason.
const (
	KindDecision   = flight.KindDecision
	ReasonCacheHit = flight.ReasonCacheHit
)

// NewRecorder returns a node journal.
var NewRecorder = flight.NewRecorder
