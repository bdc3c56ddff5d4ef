// Temporal and spatial safety walk-through: every attack class in the
// adversarial harness's grammar mounted against PA+AOS, plus the
// AHC-forging defense of §VII-C (which the grammar cannot express —
// it needs direct access to the pointer-signing unit).
//
// For each class the harness grades one detection-rate cell (20 generated
// programs at seed 1, the cell `aosbench -exp attacks -attack-programs 20`
// computes) and this example reports the detection rate — deterministic
// classes come out 20/20, while the PAC-aliasing classes (use-after-free
// and double free, where an exact same-size reuse can re-sign the same
// address with the same bounds) show the probabilistic gap the paper
// discusses in §VII-E.
//
// Run with: go run ./examples/uafdetect
package main

import (
	"context"
	"fmt"
	"log"

	"aos"
	"aos/internal/experiments"
	"aos/internal/pa"
	"aos/internal/security"
)

const programs = 20

func main() {
	fmt.Println("PA+AOS against the full attack grammar")
	fmt.Println()
	fmt.Printf("%-22s %-14s %s\n", "attack class", "model", "detected")

	for _, class := range security.Classes() {
		cell, err := experiments.RunAttackSpec(context.Background(), experiments.AttackSpec{
			Scheme: aos.PAAOS.String(), Class: class.String(), Programs: programs, Seed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		note := ""
		if cell.Bypassed > 0 {
			note = "  (PAC aliasing: same-size reuse re-signs the same bounds)"
		}
		fmt.Printf("%-22s %-14s %d/%d%s\n", class, cell.Expected, cell.Detected, programs, note)
	}

	// AHC forging (§VII-C): zeroing the AHC to dodge bounds checking is
	// caught by autm's on-load authentication under PA+AOS.
	sys, err := aos.NewSystem(aos.Options{Scheme: aos.PAAOS})
	if err != nil {
		log.Fatal(err)
	}
	victim, err := sys.Malloc(128)
	if err != nil {
		log.Fatal(err)
	}
	forged := aos.Ptr{Raw: victim.Raw &^ (uint64(3) << pa.AHCShift)}
	fmt.Println()
	if err := sys.Machine().AutM(forged); err != nil {
		fmt.Println("AHC-forged pointer (autm): DETECTED:", err)
	} else {
		fmt.Println("AHC-forged pointer (autm): MISSED")
	}
}
