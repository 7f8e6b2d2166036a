// Command acsim runs wide-area scenarios through the simulator.
//
// Named geo-realistic scenarios (internal/scenario) with oracle checking:
//
//	acsim list                        show the scenario gallery
//	acsim run <name> [-seed N]        run one scenario, report oracle verdicts
//	acsim run <name> -flight          also write the flight dump on violation
//	acsim table                       run the whole catalog, emit the markdown
//	                                  gallery table (EXPERIMENTS.md "Scenario
//	                                  gallery")
//
// Exit status: 0 clean, 1 when a scenario violated its oracles (or could not
// run), 2 on a usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"wanac/internal/scenario"
)

const usage = `usage: acsim list
       acsim run <name> [-seed N] [-flight]
       acsim table
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
		if _, err := scenario.WriteFlightArtifact(res); err != nil {
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
	cat := scenario.Catalog()
	results := make([]*scenario.Result, len(cat))
	for i, sc := range cat {
		res, err := scenario.Run(sc, 0)
		if err != nil {
			return err
		}
		results[i] = res
	}
	fmt.Print(scenario.Table(cat, results))
	return nil
}
