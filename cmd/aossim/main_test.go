package main

import (
	"strings"
	"testing"
)

// set builds the explicitly-set flag names of a command line.
func set(names ...string) map[string]bool {
	m := make(map[string]bool)
	for _, n := range names {
		m[n] = true
	}
	return m
}

func TestCheckFlags(t *testing.T) {
	ok := cliFlags{timelineInterval: 1024}
	type testCase struct {
		name string
		edit func(*cliFlags)
		want string // substring of the error; "" accepts
	}
	cases := []testCase{
		{"defaults", func(*cliFlags) {}, ""},
		{"attack", func(f *cliFlags) { f.attack = "fake-free" }, ""},
		{"attack trace", func(f *cliFlags) { f.attack, f.attackTrace = "fake-free", "e.trace" }, ""},
		{"attack trace without attack", func(f *cliFlags) { f.attackTrace = "e.trace" }, "-attack-trace"},
		{"timeline", func(f *cliFlags) { f.timeline = "t.json" }, ""},
		{"timeline with attack", func(f *cliFlags) { f.timeline, f.attack = "t.json", "uaf-read" }, "-timeline"},
		{"timeline with replay", func(f *cliFlags) { f.timeline, f.replay = "t.json", "r.trace" }, "-timeline"},
		{"timeline zero interval", func(f *cliFlags) { f.timeline, f.timelineInterval = "t.json", 0 }, "-timeline-interval"},
		{"zero interval without timeline", func(f *cliFlags) { f.timelineInterval = 0 }, ""},
		{"record", func(f *cliFlags) { f.record = "r.trace" }, ""},
		{"record with timeline", func(f *cliFlags) { f.record, f.timeline = "r.trace", "t.json" }, ""},
		{"record with pipetrace", func(f *cliFlags) { f.record, f.pipetrace = "r.trace", 20 }, "-record"},
		{"record with replay", func(f *cliFlags) { f.record, f.replay = "r.trace", "old.trace" }, "-record"},
		{"record with attack", func(f *cliFlags) { f.record, f.attack = "r.trace", "uaf-read" }, "-record"},
		{"pipetrace", func(f *cliFlags) { f.pipetrace = 20 }, ""},
		{"pipetrace with attack", func(f *cliFlags) { f.pipetrace, f.attack = 20, "fake-free" }, "-pipetrace"},
		{"pipetrace with replay", func(f *cliFlags) { f.pipetrace, f.replay = 20, "r.trace" }, "-pipetrace"},
		{"replay", func(f *cliFlags) { f.replay = "r.trace" }, ""},
		{"attack with replay", func(f *cliFlags) { f.attack, f.replay = "fake-free", "r.trace" }, "-attack and -replay"},
		{"attack with seed", func(f *cliFlags) { f.attack, f.set = "fake-free", set("seed") }, ""},
		{"replay with seed", func(f *cliFlags) { f.replay, f.set = "r.trace", set("seed") }, "-seed"},
		{"replay with scheme and nocheck", func(f *cliFlags) { f.replay, f.set = "r.trace", set("scheme", "nocheck") }, ""},
		{"workload run with every workload flag", func(f *cliFlags) { f.set = set(append([]string{"seed"}, workloadFlags...)...) }, ""},
	}
	for _, name := range workloadFlags {
		cases = append(cases,
			testCase{"attack with -" + name, func(f *cliFlags) { f.attack, f.set = "fake-free", set(name) }, "-" + name},
			testCase{"replay with -" + name, func(f *cliFlags) { f.replay, f.set = "r.trace", set(name) }, "-" + name})
	}
	for _, tc := range cases {
		f := ok
		tc.edit(&f)
		err := checkFlags(f)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}
