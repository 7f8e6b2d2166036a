package flight

import "fmt"

// Reason explains a record: why the decision came out the way it did, or —
// for manager-side records — what verdict a query received. Each decision
// reason statically implies the outcome (Allowed), which is what lets the
// harness oracle cross-check evidence against outcomes.
type Reason uint8

// Decision reasons (host side). The names are stable: they are label values
// on wanac_host_check_reasons_total and appear in dumps and transcripts.
const (
	// ReasonCacheHit: allowed from a fresh ACL_cache entry (§3.2).
	ReasonCacheHit Reason = iota + 1
	// ReasonQuorumAllow: C distinct managers granted within a round.
	ReasonQuorumAllow
	// ReasonDefaultAllow: R query rounds went unanswered and the
	// high-availability rule (Figure 4) allowed by default.
	ReasonDefaultAllow
	// ReasonResolveAllow: name-service resolution failed R times and the
	// high-availability rule allowed by default.
	ReasonResolveAllow
	// ReasonQuorumDeny: enough managers explicitly denied that C grants
	// became impossible even from the full manager set.
	ReasonQuorumDeny
	// ReasonUnreachableDeny: R query rounds went unanswered and the policy
	// fails safe.
	ReasonUnreachableDeny
	// ReasonResolveDeny: name-service resolution failed R times and the
	// policy fails safe.
	ReasonResolveDeny
	// ReasonUnregisteredDeny: the app is not registered on this host (or
	// the right is invalid), including apps unregistered mid-check.
	ReasonUnregisteredDeny

	// Manager response reasons: one per query verdict.
	ReasonQueryGranted
	ReasonQueryDenied
	ReasonQueryFrozen
	ReasonQueryShed
	ReasonQueryUnknownApp

	reasonCount
)

// NumReasons is one past the largest Reason value, for arrays indexed by
// Reason.
const NumReasons = int(reasonCount)

var reasonNames = [NumReasons]string{
	ReasonCacheHit:         "cache_hit",
	ReasonQuorumAllow:      "quorum_allow",
	ReasonDefaultAllow:     "default_allow",
	ReasonResolveAllow:     "default_allow_resolve",
	ReasonQuorumDeny:       "quorum_deny",
	ReasonUnreachableDeny:  "deny_unreachable",
	ReasonResolveDeny:      "deny_resolve",
	ReasonUnregisteredDeny: "deny_unregistered",
	ReasonQueryGranted:     "query_granted",
	ReasonQueryDenied:      "query_denied",
	ReasonQueryFrozen:      "query_frozen",
	ReasonQueryShed:        "query_shed",
	ReasonQueryUnknownApp:  "query_unknown_app",
}

// DecisionReasons lists the host-side decision reasons in stable order
// (the order the reason counters and transcript summaries use).
var DecisionReasons = []Reason{
	ReasonCacheHit, ReasonQuorumAllow, ReasonDefaultAllow, ReasonResolveAllow,
	ReasonQuorumDeny, ReasonUnreachableDeny, ReasonResolveDeny, ReasonUnregisteredDeny,
}

// String returns the reason's stable name.
func (r Reason) String() string { return name(reasonNames[:], r, "reason") }

// Decision reports whether r is a host-side decision reason (as opposed to
// a manager-side query verdict).
func (r Reason) Decision() bool {
	return r >= ReasonCacheHit && r <= ReasonUnregisteredDeny
}

// Allowed reports the outcome the reason statically implies. Only
// meaningful for decision reasons.
func (r Reason) Allowed() bool {
	switch r {
	case ReasonCacheHit, ReasonQuorumAllow, ReasonDefaultAllow, ReasonResolveAllow:
		return true
	}
	return false
}

// Default reports whether the reason is a default-rule fallback (Figure 4),
// as opposed to a positive verification.
func (r Reason) Default() bool {
	return r == ReasonDefaultAllow || r == ReasonResolveAllow
}

// MarshalText writes the stable name, as dumps carry it.
func (r Reason) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// UnmarshalText accepts a stable name.
func (r *Reason) UnmarshalText(b []byte) error { return unname(reasonNames[:], b, r, "reason") }

// name and unname map a small enum, Reason or Kind, to its stable name and
// back.
func name[T ~uint8](names []string, v T, what string) string {
	if int(v) < len(names) && names[v] != "" {
		return names[v]
	}
	return fmt.Sprintf("%s-%d", what, uint8(v))
}

func unname[T ~uint8](names []string, b []byte, v *T, what string) error {
	for i, n := range names {
		if n != "" && n == string(b) {
			*v = T(i)
			return nil
		}
	}
	return fmt.Errorf("flight: unknown %s %q", what, b)
}
