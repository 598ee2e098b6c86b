package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workload is one traffic mix against the in-process daemon. A run
// prepares its inputs, boots the daemon (timed, several times), warms it,
// then sends whole rounds of operations until the run's time is up.
type workload interface {
	name() string
	// prepare draws the inputs, untimed.
	prepare() error
	// warm sends untimed requests that fill caches and references.
	warm(c *client) error
	// round sends one fixed-size round of operations.
	round(c *client, rc *recorder)
	// finish runs the end-of-run checks.
	finish(c *client) error
	admitRatio() float64
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "place-mem":
		return &placeWorkload{seed: seed}, nil
	case "analyze-mix":
		return &analyzeWorkload{seed: seed}, nil
	case "simulate":
		return &simulateWorkload{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want place-mem, analyze-mix or simulate)", name)
}

// recorder times every request of a timed phase, keeps the spans of a
// traced run, and counts attempted and failed operations.
type recorder struct {
	lat       []time.Duration
	attempted int
	failures  map[string]int
	examples  map[string]string
	spans     *spanLog // nil when untraced
	op        int64
}

func newRecorder(spans *spanLog) *recorder {
	return &recorder{failures: map[string]int{}, examples: map[string]string{}, spans: spans}
}

// call sends one timed request.
func (rc *recorder) call(c *client, method, path string, body []byte) (int, []byte) {
	st, resp, t0, d := c.do(method, path, body)
	rc.lat = append(rc.lat, d)
	rc.attempted++
	if rc.spans != nil {
		rc.spans.add("http"+path, t0, d, rc.op)
	}
	rc.op++
	return st, resp
}

// latency returns the run's throughput, as requests per second spent
// inside the handler (the client's own input generation and checking stay
// out of it), and the median and 99th-percentile latency (µs) over every
// request of the run.
func (rc *recorder) latency() (ops, p50, p99 float64) {
	lat := durationsUs(rc.lat)
	sum := 0.0
	for _, x := range lat {
		sum += x
	}
	if sum > 0 {
		ops = float64(len(lat)) / sum * 1e6
	}
	return ops, quantile(lat, 0.50), quantile(lat, 0.99)
}

// window is how many consecutive requests one diagnostic window holds.
const window = 1000

// windowSpread returns the lowest and highest per-window throughput, so a
// run can say how much its speed moved while it ran.
func (rc *recorder) windowSpread() (lo, hi float64) {
	for i := 0; i+window <= len(rc.lat); i += window {
		var sum time.Duration
		for _, d := range rc.lat[i : i+window] {
			sum += d
		}
		r := float64(window) / sum.Seconds()
		if lo == 0 || r < lo {
			lo = r
		}
		hi = max(hi, r)
	}
	return lo, hi
}

// fail counts one failed operation under its category: the known fault
// has its own, every other wrong answer or transport error shares one.
func (rc *recorder) fail(err error) {
	cat := "wrong-answer"
	if errors.Is(err, errFaultAlphaBeta) {
		cat = "known-fault:alpha-beta"
	}
	rc.failures[cat]++
	if _, ok := rc.examples[cat]; !ok {
		rc.examples[cat] = err.Error()
	}
}

func (rc *recorder) failed() int {
	n := 0
	for _, k := range rc.failures {
		n += k
	}
	return n
}

// unexpected counts failures other than the known fault.
func (rc *recorder) unexpected() int {
	return rc.failed() - rc.failures["known-fault:alpha-beta"]
}

// runTimed sends whole rounds until d has passed, and returns the rounds
// sent. Stopping only between rounds keeps the share of each operation
// kind, and so the share of known-fault failures, the same in every run.
func runTimed(w workload, c *client, rc *recorder, d time.Duration) int {
	start := time.Now()
	rounds := 0
	for time.Since(start) < d {
		w.round(c, rc)
		rounds++
	}
	return rounds
}

// setupRuns is how many daemon constructions a run times; setup_s is their
// median. A construction takes about 0.15 ms, so one alone would measure
// the moment, not the daemon.
const setupRuns = 200

// timeSetups constructs and closes n daemons back to back, each after a
// collection so that none pays for the garbage of the one before, and
// returns their construction times. Interleaving them with the workload's
// rounds made each one start from cold caches and spread wider.
func timeSetups(n int) []float64 {
	var times []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		d, err := bootDaemon("", nil)
		if err != nil {
			fatalf("boot: %v", err)
		}
		times = append(times, time.Since(t0).Seconds())
		d.close()
	}
	return times
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func durationsUs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	return out
}

// procCounters are the process-wide costs read at the start and end of a
// timed phase.
type procCounters struct {
	cpu        time.Duration
	allocBytes uint64
	gcs        uint32
}

func readProc() procCounters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCounters{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms.TotalAlloc,
		gcs:        ms.NumGC,
	}
}

func maxRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(1)
}

// e2eProcs is the GOMAXPROCS of every end-to-end run.
const e2eProcs = 1
