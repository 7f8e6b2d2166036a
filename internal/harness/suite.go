package harness

// SeedFailure is one failing seed in a suite run, with the minimized replay
// schedule rendered as text.
type SeedFailure struct {
	Seed       int64       `json:"seed"`
	Violations []Violation `json:"violations"`
	// MinimizedEvents is the delta-debugged schedule that still reproduces
	// the failure (empty when minimization was disabled).
	MinimizedEvents []string `json:"minimized_events,omitempty"`
	// FlightDump is the path to the merged multi-node flight recording for
	// this failure — from the minimized replay when minimization ran (so the
	// recording matches the minimized schedule), else from the original run.
	// Render it with acaudit -timeline. Empty if the dump could not be written.
	FlightDump string `json:"flight_dump,omitempty"`
	// Replay is the command line reproducing the failure.
	Replay string `json:"replay"`
}

// SuiteReport aggregates a multi-seed harness run; it is the JSON document
// `acsim check` emits.
type SuiteReport struct {
	Seeds     int64          `json:"seeds"`
	FirstSeed int64          `json:"first_seed"`
	Scenarios int            `json:"scenarios"`
	Decisions int            `json:"decisions"`
	Invokes   int            `json:"invokes"`
	Oracles   []OracleReport `json:"oracles"`
	Failures  []SeedFailure  `json:"failures"`
	// Errors records seeds whose world could not even be built — always a
	// harness bug, never a protocol verdict.
	Errors []string `json:"errors,omitempty"`
}

// Passed reports whether every scenario ran clean.
func (s *SuiteReport) Passed() bool { return len(s.Failures) == 0 && len(s.Errors) == 0 }

// RunSeeds executes scenarios for seeds firstSeed..firstSeed+n-1 and
// aggregates per-oracle counts. Failing seeds are minimized with the given
// re-run budget (0 disables minimization). progress, when non-nil, is
// called after each seed with its result (nil on build error).
func RunSeeds(firstSeed, n int64, opt Options, minimizeBudget int, progress func(seed int64, res *Result)) *SuiteReport {
	report := &SuiteReport{Seeds: n, FirstSeed: firstSeed, Failures: []SeedFailure{}}
	byName := map[string]*OracleReport{}
	order := []string{}

	for seed := firstSeed; seed < firstSeed+n; seed++ {
		sc := Generate(seed)
		res, err := RunScenario(sc, opt)
		if err != nil {
			report.Errors = append(report.Errors, err.Error())
			if progress != nil {
				progress(seed, nil)
			}
			continue
		}
		report.Scenarios++
		report.Decisions += res.Decisions
		report.Invokes += res.Invokes
		for _, o := range res.Oracles {
			agg, ok := byName[o.Name]
			if !ok {
				agg = &OracleReport{Name: o.Name}
				byName[o.Name] = agg
				order = append(order, o.Name)
			}
			agg.Observations += o.Observations
			agg.Violations += o.Violations
		}
		if res.Failed() {
			fail := SeedFailure{
				Seed:       seed,
				Violations: res.Violations,
				Replay:     replayCommand(seed, opt),
			}
			dumpRes := res
			if minimizeBudget > 0 {
				minimized := Minimize(sc, opt, res.Violations, minimizeBudget)
				for _, e := range minimized.Events {
					fail.MinimizedEvents = append(fail.MinimizedEvents, e.String())
				}
				// Re-run the minimized schedule, keeping its log, so the
				// embedded flight dump records exactly the counterexample the
				// report ships, not the noisier original.
				if minRes, _, err := runScenario(minimized, opt, flightRing); err == nil && minRes.FlightDump() != nil {
					dumpRes = minRes
				}
			}
			if path, err := dumpRes.WriteFlightArtifact(); err == nil {
				fail.FlightDump = path
			}
			report.Failures = append(report.Failures, fail)
		}
		if progress != nil {
			progress(seed, res)
		}
	}
	for _, name := range order {
		report.Oracles = append(report.Oracles, *byName[name])
	}
	return report
}
