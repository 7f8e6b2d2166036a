// Package nameservice implements the trusted name service of §3.2: hosts
// that do not know Managers(A) statically query it for the current manager
// set, and re-query after a TTL so that manager-set changes propagate with
// the same time-based expiration technique the protocol uses for rights.
package nameservice

import (
	"sync"
	"time"

	"wanac/internal/core"
	"wanac/internal/wire"
)

// Server answers ResolveRequest messages from hosts.
type Server struct {
	env core.Env

	mu   sync.Mutex
	apps map[wire.AppID]record
}

type record struct {
	managers []wire.NodeID
	ttl      time.Duration
}

// New creates a name server node that sends through env.
func New(env core.Env) *Server {
	return &Server{env: env, apps: make(map[wire.AppID]record)}
}

// SetManagers installs (or replaces) the manager set for app. ttl controls
// how long hosts may cache the set; zero means forever.
func (s *Server) SetManagers(app wire.AppID, managers []wire.NodeID, ttl time.Duration) {
	cp := make([]wire.NodeID, len(managers))
	copy(cp, managers)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.apps[app] = record{managers: cp, ttl: ttl}
}

// HandleMessage implements the network handler.
func (s *Server) HandleMessage(from wire.NodeID, msg wire.Message) {
	req, ok := msg.(wire.ResolveRequest)
	if !ok {
		return
	}
	s.mu.Lock()
	rec, known := s.apps[req.App]
	s.mu.Unlock()
	resp := wire.ResolveResponse{App: req.App, Nonce: req.Nonce}
	if known {
		resp.Managers = append(resp.Managers, rec.managers...)
		resp.TTL = rec.ttl
	}
	s.env.Send(from, resp)
}
