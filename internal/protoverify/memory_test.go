//go:build linux || darwin

package protoverify

import (
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"testing"

	"aos/internal/instrument"
)

// TestVerifyMemoryBounded: programs stream through a bounded window, so
// the verifier's peak RSS stays flat as the enumeration grows. Each depth
// runs in a re-executed copy of the test binary so its peak is its own;
// Baseline at k=6 enumerates ~40x the programs of k=4. The copies run on
// one P: with two, a mark phase the host deschedules lets the workers
// allocate megabytes that the GC counts live for a cycle, an RSS spike
// that says nothing about what the verifier retains.
func TestVerifyMemoryBounded(t *testing.T) {
	const env = "PROTOVERIFY_RSS_K"
	if k := os.Getenv(env); k != "" {
		n, err := strconv.Atoi(k)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Verify(instrument.Baseline, Options{K: n}); err != nil {
			t.Fatal(err)
		}
		return
	}
	peak := func(k int) int64 {
		cmd := exec.Command(os.Args[0], "-test.run=^TestVerifyMemoryBounded$")
		cmd.Env = append(os.Environ(), env+"="+strconv.Itoa(k), "GOMAXPROCS=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("k=%d helper: %v\n%s", k, err, out)
		}
		rss := maxRSS(cmd.ProcessState)
		t.Logf("k=%d peak RSS %d", k, rss)
		return rss
	}
	k4, k6 := peak(4), peak(6)
	if k6 > 2*k4 {
		t.Errorf("peak RSS grows with the enumeration: k=4 %d, k=6 %d (> 2x)", k4, k6)
	}
}

// maxRSS is an exited process's peak resident set size, in the platform's
// rusage unit (KiB on Linux, bytes on Darwin; callers compare ratios).
func maxRSS(ps *os.ProcessState) int64 {
	return int64(ps.SysUsage().(*syscall.Rusage).Maxrss)
}
