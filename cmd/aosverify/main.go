// Command aosverify statically verifies every protection scheme's
// instrumentation protocol: it exhaustively enumerates bounded heap-event
// programs, drives each through the scheme's rewriter, and checks the
// emitted instruction stream against the scheme's tracecheck contract —
// failing on the first rejected program (reported as a minimized,
// replayable counterexample) or on any expected contract rule left
// unexercised by the whole enumeration (a dead rule).
//
// Exit status: 0 all verified; 1 counterexample or dead rule; 2 harness
// or usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"aos"
	"aos/internal/attack"
	"aos/internal/protoverify"
	"aos/internal/tracecheck"
)

func main() {
	all := flag.Bool("all", false, "verify every registered scheme")
	schemeName := flag.String("scheme", "", "verify one scheme (see aossim -scheme for names)")
	k := flag.Int("k", protoverify.DefaultK, "event-program depth bound")
	cover := flag.Bool("cover", false, "print the per-rule coverage table")
	coverOut := flag.String("coverout", "", "write the verification report as JSON to this file")
	ceOut := flag.String("ce", "", "write the minimized counterexample stream to this trace file (replay with aossim -replay)")
	mutantName := flag.String("mutant", "", "seed a named defect into the instrumentation stream (see -list-mutants)")
	listMutants := flag.Bool("list-mutants", false, "list the seedable defects")
	flag.Parse()

	if *listMutants {
		for _, mu := range protoverify.Mutants() {
			fmt.Printf("%-14s %s\n", mu.Name, mu.Desc)
		}
		return
	}
	if *k < 1 {
		fmt.Fprintf(os.Stderr, "aosverify: -k must be at least 1, got %d\n", *k)
		os.Exit(2)
	}
	if *all == (*schemeName != "") {
		fmt.Fprintln(os.Stderr, "aosverify: pass exactly one of -all or -scheme")
		os.Exit(2)
	}

	opts := protoverify.Options{K: *k}
	if *mutantName != "" {
		mu, ok := protoverify.MutantByName(*mutantName)
		if !ok {
			fmt.Fprintf(os.Stderr, "aosverify: unknown mutant %q (try -list-mutants)\n", *mutantName)
			os.Exit(2)
		}
		opts.Mutate = mu.Wrap
	}

	var reports []*protoverify.Report
	if *all {
		var err error
		reports, err = protoverify.VerifyAll(opts)
		if err != nil {
			fatal(err)
		}
	} else {
		scheme, err := aos.ParseScheme(*schemeName)
		if err != nil {
			fatal(err)
		}
		rep, err := protoverify.Verify(scheme, opts)
		if err != nil {
			fatal(err)
		}
		reports = []*protoverify.Report{rep}
	}

	failed := false
	for _, rep := range reports {
		printReport(rep, *cover)
		if !rep.OK() {
			failed = true
		}
	}
	if *coverOut != "" {
		if err := writeJSON(*coverOut, reports); err != nil {
			fatal(err)
		}
	}
	if *ceOut != "" {
		if err := writeCounterexample(*ceOut, reports, opts.Mutate); err != nil {
			fatal(err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "aosverify: %v\n", err)
	os.Exit(2)
}

func printReport(rep *protoverify.Report, cover bool) {
	exercised := 0
	for _, id := range rep.Expected {
		if rep.Coverage[id] > 0 {
			exercised++
		}
	}
	status := "OK"
	switch {
	case rep.CE != nil:
		status = "COUNTEREXAMPLE"
	case len(rep.Dead) > 0:
		status = "DEAD RULES"
	}
	fmt.Printf("%-14s k=%d programs=%d events=%d insts=%d rules=%d/%d %s\n",
		rep.Scheme, rep.K, rep.Programs, rep.Events, rep.Insts,
		exercised, len(rep.Expected), status)

	if cover {
		for _, id := range tracecheck.RuleIDs() {
			mark := " "
			if expectedRule(rep, id) {
				mark = "*"
			}
			fmt.Printf("  %s %-24s %d\n", mark, id, rep.Coverage[id])
		}
	}
	for _, id := range rep.Dead {
		fmt.Printf("  dead rule %s: %s\n", id, tracecheck.Explain(id))
	}
	if rep.CE != nil {
		printCounterexample(rep)
	}
}

func expectedRule(rep *protoverify.Report, id string) bool {
	for _, e := range rep.Expected {
		if e == id {
			return true
		}
	}
	return false
}

func printCounterexample(rep *protoverify.Report) {
	ce := rep.CE
	fmt.Printf("  counterexample (minimized %d -> %d steps, %d insts):\n",
		ce.OriginalLen, len(ce.Steps), ce.Insts)
	for _, line := range strings.SplitAfter(attack.StepListing(ce.Steps), "\n") {
		if line != "" {
			fmt.Print("    " + line)
		}
	}
	fmt.Println("  violations:")
	seen := map[string]bool{}
	for _, v := range ce.Violations {
		fmt.Printf("    %s\n", v.String())
		if exp := tracecheck.Explain(v.Rule); exp != "" && !seen[v.Rule] {
			seen[v.Rule] = true
			fmt.Printf("      %s\n", wrap(exp, 72, "      "))
		}
	}
}

// wrap reflows one paragraph to the given width with a hanging indent.
func wrap(s string, width int, indent string) string {
	words := strings.Fields(s)
	var b strings.Builder
	line := 0
	for i, w := range words {
		if i > 0 {
			if line+1+len(w) > width {
				b.WriteString("\n" + indent)
				line = 0
			} else {
				b.WriteString(" ")
				line++
			}
		}
		b.WriteString(w)
		line += len(w)
	}
	return b.String()
}

// jsonReport is the coverage-artifact shape: scheme and counterexample
// steps by name, the instruction-level trace elided (the -ce flag exports
// it losslessly).
type jsonReport struct {
	Scheme   string            `json:"scheme"`
	K        int               `json:"k"`
	Programs uint64            `json:"programs"`
	Events   uint64            `json:"events"`
	Insts    uint64            `json:"insts"`
	Coverage map[string]uint64 `json:"coverage"`
	Expected []string          `json:"expected"`
	Dead     []string          `json:"dead,omitempty"`
	OK       bool              `json:"ok"`
	CE       []string          `json:"counterexample,omitempty"`
}

func writeJSON(path string, reports []*protoverify.Report) error {
	out := make([]jsonReport, 0, len(reports))
	for _, rep := range reports {
		jr := jsonReport{
			Scheme:   rep.Scheme.String(),
			K:        rep.K,
			Programs: rep.Programs,
			Events:   rep.Events,
			Insts:    rep.Insts,
			Coverage: rep.Coverage,
			Expected: rep.Expected,
			Dead:     rep.Dead,
			OK:       rep.OK(),
		}
		if rep.CE != nil {
			for _, st := range rep.CE.Steps {
				jr.CE = append(jr.CE, st.Kind.String())
			}
		}
		out = append(out, jr)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeCounterexample records the first counterexample's judged stream as
// a binary trace; `aossim -replay <file> -scheme <scheme>` reproduces the
// violation in the full timing simulator.
func writeCounterexample(path string, reports []*protoverify.Report, mutate protoverify.MutateFunc) error {
	for _, rep := range reports {
		if rep.CE == nil {
			continue
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := protoverify.WriteTrace(f, rep.Scheme, rep.CE.Steps, mutate); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("counterexample stream (%d insts, scheme %s) written to %s\n",
			rep.CE.Insts, rep.Scheme, path)
		return nil
	}
	fmt.Println("no counterexample found; nothing written to", path)
	return nil
}
