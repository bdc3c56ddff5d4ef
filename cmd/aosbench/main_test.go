package main

import (
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	ok := cliFlags{exp: "all", mallocs: 1_000_000, timelineInterval: 1024}
	for _, tc := range []struct {
		name string
		edit func(*cliFlags)
		want string // substring of the error; "" accepts
	}{
		{"defaults", func(*cliFlags) {}, ""},
		{"one malloc", func(f *cliFlags) { f.exp, f.mallocs = "fig11", 1 }, ""},
		{"negative mallocs", func(f *cliFlags) { f.exp, f.mallocs = "fig11", -5 }, "-mallocs"},
		{"zero mallocs", func(f *cliFlags) { f.mallocs = 0 }, "-mallocs"},
		{"csv fig14", func(f *cliFlags) { f.exp, f.csv = "fig14", true }, ""},
		{"csv fig18", func(f *cliFlags) { f.exp, f.csv = "fig18", true }, ""},
		{"csv all", func(f *cliFlags) { f.csv = true }, ""},
		{"csv fig15", func(f *cliFlags) { f.exp, f.csv = "fig15", true }, "-csv"},
		{"csv ablate", func(f *cliFlags) { f.exp, f.csv = "ablate", true }, "-csv"},
		{"json fig14", func(f *cliFlags) { f.exp, f.json = "fig14", true }, ""},
		{"json attacks", func(f *cliFlags) { f.exp, f.json = "attacks", true }, ""},
		{"json fig15", func(f *cliFlags) { f.exp, f.json = "fig15", true }, "-json"},
		{"attack programs", func(f *cliFlags) { f.exp, f.attackPrograms = "attacks", 200 }, ""},
		{"attack programs at the cap", func(f *cliFlags) { f.exp, f.attackPrograms = "attacks", 1<<16 }, ""},
		{"attack programs over the cap", func(f *cliFlags) { f.exp, f.attackPrograms = "attacks", 1<<16+1 }, "0..65536"},
		{"negative attack programs", func(f *cliFlags) { f.exp, f.attackPrograms = "attacks", -1 }, "0..65536"},
		{"attack programs security", func(f *cliFlags) { f.exp, f.attackPrograms = "security", 5 }, "-exp attacks"},
		{"attack programs all", func(f *cliFlags) { f.attackPrograms = 5 }, "-exp attacks"},
		{"timeline fig14", func(f *cliFlags) { f.exp, f.timeline = "fig14", "t.json" }, ""},
		{"timeline resize", func(f *cliFlags) { f.exp, f.timeline = "resize", "t.json" }, "-timeline requires"},
		{"timeline zero interval", func(f *cliFlags) { f.exp, f.timeline, f.timelineInterval = "fig14", "t.json", 0 }, "-timeline-interval"},
		{"zero interval without timeline", func(f *cliFlags) { f.timelineInterval = 0 }, ""},
		{"sample shape", func(f *cliFlags) { f.sample, f.sampleWindows, f.sampleGap = true, 8, 1000 }, ""},
		{"sample-gap without sample", func(f *cliFlags) { f.sampleGap = 1000 }, "require -sample"},
		{"sample-windows without sample", func(f *cliFlags) { f.sampleWindows = 8 }, "require -sample"},
	} {
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
