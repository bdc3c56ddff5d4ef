package main

import (
	"fmt"
	"os"

	"aos"
	"aos/internal/attack"
	"aos/internal/security"
)

// runAttack is the single-program adversarial mode: generate one attack
// program of the class from the seed, grade it under every registered
// scheme, and — when it evades the scheme selected with -scheme —
// minimize the evasion and optionally record its trace for -replay.
func runAttack(className string, scheme aos.Scheme, seed uint64, tracePath string) error {
	class, err := security.ParseClass(className)
	if err != nil {
		return err
	}
	p, err := attack.Generate(class, seed)
	if err != nil {
		return err
	}
	fmt.Print(p.Listing())
	fmt.Println()

	results, err := attack.RunAll(p)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-10s %-14s %s\n", "scheme", "verdict", "model", "detail")
	for _, r := range results {
		detail := "-"
		if r.Err != nil {
			detail = fmt.Sprintf("step %d: %v", r.DetectedAt, r.Err)
		}
		fmt.Printf("%-14s %-10s %-14s %s\n", r.Scheme, r.Verdict, r.Expected, detail)
	}

	var chosen attack.Result
	for _, r := range results {
		if r.Scheme == scheme {
			chosen = r
		}
	}
	if chosen.Verdict != attack.VerdictBypassed && chosen.Verdict != attack.VerdictEscaped {
		if tracePath != "" {
			fmt.Printf("\n%s detected the attack; no escape trace to write\n", scheme)
		}
		return nil
	}

	// The program evaded -scheme: shrink it to the 1-minimal evasion.
	verdict := chosen.Verdict
	min := attack.Minimize(p, func(q *attack.Program) bool {
		if q.Validate() != nil {
			return false
		}
		r, err := attack.Run(q, scheme)
		return err == nil && r.Verdict == verdict
	})
	fmt.Printf("\n%s under %s: minimized to %d steps (from %d)\n",
		verdict, scheme, len(min.Steps), len(p.Steps))
	fmt.Print(min.Listing())

	if tracePath == "" {
		return nil
	}
	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	res, err := attack.WriteTrace(min, scheme, f)
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if res.Verdict != verdict {
		return fmt.Errorf("traced re-run graded %v, expected %v", res.Verdict, verdict)
	}
	fmt.Printf("escape trace written to %s (replay: aossim -replay %s -scheme %s)\n",
		tracePath, tracePath, scheme)
	return nil
}
