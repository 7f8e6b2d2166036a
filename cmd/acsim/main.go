// Command acsim runs wide-area scenarios through the simulator, every run
// judged by the five harness oracles.
//
// Named geo-realistic scenarios (internal/scenario):
//
//	acsim list                        show the scenario gallery
//	acsim run <name> [-seed N]        run one scenario, report oracle verdicts
//	acsim run <name> -flight          also write the flight dump on violation
//	acsim table                       run the whole catalog, emit the markdown
//	                                  gallery table (EXPERIMENTS.md "Scenario
//	                                  gallery")
//
// Seeded random scenarios (internal/harness), reported as JSON: scenario
// counts, per-oracle totals and, for each failing seed, its violations, a
// delta-debugged minimal schedule, a replay command and the path of the
// merged flight recording:
//
//	acsim check -seeds 100
//	acsim check -seeds 20 -start 1000 -v
//	acsim check -seeds 5 -inject-te -inject-drop-notices   # prove the oracles bite
//
// Exit status: 0 clean, 1 when a scenario violated its oracles (or could not
// run), 2 on a usage error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"wanac/internal/harness"
	"wanac/internal/scenario"
)

const usage = `usage: acsim list
       acsim run <name> [-seed N] [-flight]
       acsim table
       acsim check [-seeds N] [-start S] [-minimize B] [-v] [-inject-te] [-inject-drop-notices]
`

// usageError is a command line that names nothing acsim can do.
type usageError struct{ error }

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run executes one command line and returns the exit status, so a test can
// assert the status and the stderr text without os.Exit.
func run(args []string, stderr io.Writer) int {
	var err error = usageError{errors.New("no command")}
	if len(args) > 0 {
		switch args[0] {
		case "list":
			err = cmdList()
		case "run":
			err = cmdRun(args[1:])
		case "table":
			err = cmdTable()
		case "check":
			err = cmdCheck(args[1:], stderr)
		default:
			err = usageError{fmt.Errorf("unknown command %q", args[0])}
		}
	}
	if err == nil {
		return 0
	}
	fmt.Fprintln(stderr, "acsim:", err)
	if errors.As(err, &usageError{}) {
		fmt.Fprint(stderr, usage)
		return 2
	}
	return 1
}

// cmdList prints the scenario gallery.
func cmdList() error {
	cat := scenario.Catalog()
	fmt.Printf("%d named scenarios (run with: acsim run <name> [-seed N])\n\n", len(cat))
	for _, sc := range cat {
		fmt.Printf("%s\n", sc.Name)
		fmt.Printf("    %s\n", sc.Summary)
		fmt.Printf("    topology=%s load=%s faults=%s\n",
			sc.Topology.Name, sc.Load.Describe(), sc.FaultSummary())
	}
	return nil
}

// errViolations distinguishes an oracle failure (run completed, invariants
// broken) from an execution error.
var errViolations = fmt.Errorf("scenario violated its oracles")

// cmdRun executes one named scenario and reports the oracle verdicts. It
// returns errViolations when any oracle fired, so CI runs exit non-zero.
func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	seed := fs.Int64("seed", 0, "seed (0 = the scenario's default)")
	writeFlight := fs.Bool("flight", false, "write the flight dump artifact on violation")
	// flag.Parse stops at the first non-flag argument, so parse, take the
	// scenario name, then parse the remainder — this accepts flags on
	// either side of the name, matching the documented usage line.
	fs.SetOutput(io.Discard) // run reports the error, once
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	name := fs.Arg(0)
	if name == "" {
		return usageError{errors.New("run: no scenario name")}
	}
	if err := fs.Parse(fs.Args()[1:]); err != nil {
		return usageError{err}
	}
	if fs.NArg() != 0 {
		return usageError{fmt.Errorf("run: unexpected argument %q", fs.Arg(0))}
	}
	sc, err := scenario.Lookup(name)
	if err != nil {
		return usageError{err}
	}
	res, err := scenario.Run(sc, *seed)
	if err != nil {
		return err
	}
	if *writeFlight {
		if _, err := res.WriteFlightArtifact(); err != nil {
			return fmt.Errorf("write flight artifact: %w", err)
		}
	}
	fmt.Println(sc.String())
	fmt.Print(scenario.FormatResult(sc, res))
	if res.Failed() {
		return errViolations
	}
	return nil
}

// cmdTable runs the full catalog at default seeds and prints the markdown
// gallery table (the generator behind EXPERIMENTS.md's "Scenario gallery").
func cmdTable() error {
	fmt.Print(scenario.TableHeader)
	for _, sc := range scenario.Catalog() {
		res, err := scenario.Run(sc, 0)
		if err != nil {
			return err
		}
		fmt.Print(scenario.TableRow(sc, res))
	}
	return nil
}

// cmdCheck runs the seeded protocol checker over a range of seeds and prints
// its JSON report. With -v it prints one line per seed to stderr; a failing
// seed's flight recording is named there too. It returns errViolations when
// any seed failed.
func cmdCheck(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	seeds := fs.Int64("seeds", 100, "number of scenario seeds to run")
	start := fs.Int64("start", 1, "first seed")
	minBudget := fs.Int("minimize", 80, "re-run budget for minimizing each failure (0 disables)")
	verbose := fs.Bool("v", false, "print one line per seed to stderr")
	injectTe := fs.Bool("inject-te", false, "inject bug: managers hand out 10×Te grants")
	injectRN := fs.Bool("inject-drop-notices", false, "inject bug: drop RevokeNotice messages")
	fs.SetOutput(io.Discard) // run reports the error, once
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if fs.NArg() != 0 {
		return usageError{fmt.Errorf("check: unexpected argument %q", fs.Arg(0))}
	}
	if *seeds < 1 {
		return usageError{errors.New("check: -seeds must be at least 1")}
	}
	var progress func(int64, *harness.Result)
	if *verbose {
		progress = func(seed int64, res *harness.Result) {
			if res == nil {
				fmt.Fprintf(stderr, "seed %d: build error\n", seed)
				return
			}
			verdict := "ok"
			if res.Failed() {
				verdict = fmt.Sprintf("%d violations", len(res.Violations))
			}
			fmt.Fprintf(stderr, "seed %d: %s, %d decisions, %d invokes, %d events\n",
				seed, verdict, res.Decisions, res.Invokes, len(res.Scenario.Events))
		}
	}
	opt := harness.Options{InflateTe: *injectTe, DropRevokeNotices: *injectRN}
	report := harness.RunSeeds(*start, *seeds, opt, *minBudget, progress)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	if report.Passed() {
		return nil
	}
	for _, f := range report.Failures {
		if f.FlightDump != "" {
			fmt.Fprintf(stderr, "seed %d: flight recording %s (render with: go run ./cmd/acflight %s)\n",
				f.Seed, f.FlightDump, f.FlightDump)
		}
	}
	return fmt.Errorf("%d of %d seeds failed: %w", len(report.Failures)+len(report.Errors), *seeds, errViolations)
}
