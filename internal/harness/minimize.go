package harness

// Minimize shrinks a failing scenario's event schedule to a smaller one
// that still fails the same way, using ddmin-style delta debugging:
// partition the schedule into chunks, try dropping each chunk, keep any
// reduction that still fails, and refine the granularity when no chunk can
// be dropped. "Fails the same way" means every oracle that fired on the
// full scenario still fires on the candidate — a reduction that trades a
// revocation-safety breach for an unrelated audit complaint is a different
// bug, not a smaller reproduction. Because each trial replays the
// deterministic simulator, the predicate is exact, not a probability.
//
// failed is what the oracles reported on the full scenario, which the
// caller has already run (RunSeeds has its Result): the failure signature
// every reduction must preserve. budget caps the number of scenario
// executions (each trial simulates the full virtual horizon), that first
// run included, so the trials, and the schedule returned, are those of a
// search that ran the full scenario itself; when it runs out the best
// reduction so far is returned. A scenario without violations is returned
// unchanged.
func Minimize(sc Scenario, opt Options, failed []Violation, budget int) Scenario {
	if len(failed) == 0 || budget <= 0 {
		return sc
	}
	budget-- // the full scenario's run
	want := make(map[string]bool)
	for _, v := range failed {
		want[v.Oracle] = true
	}
	fails := func(events []Event) bool {
		if budget <= 0 {
			return false
		}
		budget--
		trial := sc
		trial.Events = events
		res, err := RunScenario(trial, opt)
		if err != nil || !res.Failed() {
			return false
		}
		got := make(map[string]bool)
		for _, v := range res.Violations {
			got[v.Oracle] = true
		}
		for name := range want {
			if !got[name] {
				return false
			}
		}
		return true
	}

	events := sc.Events
	n := 2
	for len(events) > 1 && budget > 0 {
		chunk := (len(events) + n - 1) / n
		reduced := false
		for lo := 0; lo < len(events) && budget > 0; lo += chunk {
			hi := lo + chunk
			if hi > len(events) {
				hi = len(events)
			}
			candidate := make([]Event, 0, len(events)-(hi-lo))
			candidate = append(candidate, events[:lo]...)
			candidate = append(candidate, events[hi:]...)
			if len(candidate) > 0 && fails(candidate) {
				events = candidate
				n = max(n-1, 2)
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(events) {
				break
			}
			n = min(2*n, len(events))
		}
	}
	sc.Events = events
	return sc
}
