// Command e2ebench is the end-to-end benchmark of hrtd. It boots the daemon
// in process, the way cmd/hrtd does by default, drives one workload through
// Server.HandlerWithCluster with a single closed-loop client, checks every
// answer against oracles computed apart from the program, and prints the
// metrics as one JSON line:
//
//	go run . --workload place-mem --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// ladder. --steady N runs the workload N times on the same seed and prints
// each end-to-end metric's spread beside its bound, the run-to-run noise;
// with --vary-seeds the runs take seeds seed..seed+N-1 instead, which adds
// the differences between inputs. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		wname   = flag.String("workload", "", "place-mem, place-durable, analyze-mix or simulate")
		seed    = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced per-layer ladder")
		out     = flag.String("out", filepath.Join(".bench_build", "e2ebench"), "directory for data directories and span files")
		steady  = flag.Int("steady", 0, "run the workload this many times on --seed and print each metric's spread")
		vary    = flag.Bool("vary-seeds", false, "with --steady, give each run the next seed")
	)
	flag.Parse()
	if flag.NArg() > 0 || *wname == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) || *steady < 0 {
		fmt.Fprintln(os.Stderr, "usage: e2ebench --workload NAME --seed N --seconds S --trace 0|1 [--steady N [--vary-seeds]]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *steady > 0 {
		steadiness(*wname, *seed, *vary, *steady, *seconds, *out)
		return
	}
	dir := filepath.Join(*out, fmt.Sprintf("%s-%d-%d", *wname, *seed, os.Getpid()))
	w, err := newWorkload(*wname, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(dir)
	res := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out, dir)
	b, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

func run(w workload, seed uint64, d time.Duration, traced bool, out, dir string) result {
	// Every workload runs at GOMAXPROCS=1: one client and a daemon booted
	// for one core. On a shared 2-core box that keeps the node-worker and
	// shard hand-offs on one core instead of wherever a core is free.
	runtime.GOMAXPROCS(e2eProcs)
	// Set-up is timed first, while the process holds nothing else, so that
	// every workload and seed times it from the same state.
	setups := timeSetups(setupRuns)
	if err := w.prepare(); err != nil {
		fatalf("%s: prepare: %v", w.name(), err)
	}
	dm, err := bootDaemon("", nil)
	if err != nil {
		fatalf("%s: boot: %v", w.name(), err)
	}
	correct := true
	c := newClient(dm.handler)
	if err := w.warm(c); err != nil {
		fmt.Printf("FAIL %s warm-up: %v\n", w.name(), err)
		correct = false
	}
	warmRC := newRecorder(nil)
	runTimed(w, c, warmRC, min(d/10, time.Second))
	if warmRC.unexpected() > 0 {
		correct = false
		report(w.name()+" warm-up", warmRC)
	}
	res := result{Metrics: map[string]metric{}}
	rc := newRecorder(nil)
	runtime.GC()
	if !traced {
		rounds := runTimed(w, c, rc, d)
		ops, p50, p99 := rc.latency()
		lo, hi := rc.windowSpread()
		fmt.Printf("%s: seed=%d rounds=%d requests=%d latency samples=%d setups=%d; windows of %d requests ran at %.0f-%.0f ops/s\n",
			w.name(), seed, rounds, rc.attempted, len(rc.lat), len(setups), window, lo, hi)
		res.Metrics["ops_per_s"] = metric{ops, "1/s"}
		res.Metrics["p50_us"] = metric{p50, "us"}
		res.Metrics["p99_us"] = metric{p99, "us"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
	} else {
		// A quarter of the run untraced gives the process costs per
		// operation; a quarter with spans gives the tracing overhead; the
		// ladder takes the rest.
		p0 := readProc()
		runTimed(w, c, rc, d/4)
		p1 := readProc()
		ops := float64(rc.attempted)
		reqSpans := newSpanLog()
		trc := newRecorder(reqSpans)
		runTimed(w, c, trc, d/4)
		untraced, _, _ := rc.latency()
		tracedOps, _, _ := trc.latency()
		fmt.Printf("%s: tracing overhead: %.0f ops/s untraced, %.0f ops/s traced (%+.1f%%)\n",
			w.name(), untraced, tracedOps, 100*(tracedOps/untraced-1))
		res.Metrics["proc.cpu_us_per_op"] = metric{float64((p1.cpu - p0.cpu).Nanoseconds()) / 1e3 / ops, "us"}
		res.Metrics["proc.alloc_bytes_per_op"] = metric{float64(p1.allocBytes-p0.allocBytes) / ops, "B"}
		res.Metrics["proc.gc_per_kop"] = metric{1000 * float64(p1.gcs-p0.gcs) / ops, "count"}
		res.Metrics["serve.admit_ratio"] = metric{w.admitRatio(), "ratio"}
		rc.attempted += trc.attempted
		for k, v := range trc.failures {
			rc.failures[k] += v
			if _, ok := rc.examples[k]; !ok {
				rc.examples[k] = trc.examples[k]
			}
		}
		// The ladder keeps its own log, so a long run's request spans
		// cannot crowd out the per-layer ones.
		ladderSpans := newSpanLog()
		if err := ladder(seed, ladderSpans, res.Metrics, dir); err != nil {
			fmt.Printf("FAIL %s ladder: %v\n", w.name(), err)
			correct = false
		}
		path := filepath.Join(out, "spans-"+w.name()+".jsonl")
		if err := writeSpans(path, reqSpans, ladderSpans); err != nil {
			fmt.Printf("spans not written: %v\n", err)
		}
	}
	if err := w.finish(c); err != nil {
		fmt.Printf("FAIL %s end-of-run check: %v\n", w.name(), err)
		correct = false
	}
	dm.close()
	if !traced {
		res.Metrics["max_rss_mb"] = metric{maxRSSMiB(), "MiB"}
	}
	report(w.name(), rc)
	res.Correct = correct && rc.unexpected() == 0
	res.Attempted = rc.attempted
	res.Failed = rc.failed()
	return res
}

// report names every failure category beside its count.
func report(name string, rc *recorder) {
	cats := make([]string, 0, len(rc.failures))
	for k := range rc.failures {
		cats = append(cats, k)
	}
	sort.Strings(cats)
	for _, k := range cats {
		fmt.Printf("%s: failed %d of %d: %s, e.g. %s\n", name, rc.failures[k], rc.attempted, k, rc.examples[k])
	}
}

// steadiness runs the workload n times as child processes, one after the
// other, on seed or, with vary, on seeds seed..seed+n-1, and prints each
// end-to-end metric's median, quartiles and range beside the bound
// BENCHMARK.json gives it.
func steadiness(wname string, seed uint64, vary bool, n int, seconds float64, out string) {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	bounds := map[string]float64{}
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var spec struct {
			EndToEnd []struct {
				Name  string  `json:"name"`
				Bound float64 `json:"bound"`
			} `json:"end_to_end"`
		}
		if json.Unmarshal(b, &spec) == nil {
			for _, m := range spec.EndToEnd {
				bounds[m.Name] = m.Bound
			}
		}
	}
	values := map[string][]float64{}
	var shares []float64
	for i := 0; i < n; i++ {
		s := seed
		if vary {
			s += uint64(i)
		}
		cmd := exec.Command(self, "--workload", wname, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", "0", "--out", out)
		cmd.Stderr = os.Stderr
		outb, err := cmd.Output()
		if err != nil {
			fatalf("seed %d: %v", s, err)
		}
		var res result
		if err := json.Unmarshal(lastLine(outb), &res); err != nil {
			fatalf("seed %d: %v", s, err)
		}
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
		}
		shares = append(shares, float64(res.Failed)/float64(res.Attempted))
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d\n", s, res.Correct, res.Attempted, res.Failed)
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-12s %12s %12s %12s %12s %12s %8s %6s\n", "metric", "median", "q1", "q3", "min", "max", "iqr/med", "bound")
	for _, k := range names {
		v := values[k]
		q1, med, q3 := quartiles(v)
		lo, hi := v[0], v[0]
		for _, x := range v {
			lo, hi = min(lo, x), max(hi, x)
		}
		fmt.Printf("%-12s %12.4g %12.4g %12.4g %12.4g %12.4g %8.3f %6.2f\n", k, med, q1, q3, lo, hi, (q3-q1)/med, bounds[k])
	}
	fmt.Printf("failed share per run: %v\n", shares)
}

// quartiles follows Python's statistics.quantiles(values, n=4), the
// exclusive method, so spreads read the same as the acceptance check.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		m := float64(len(s)+1) * p
		j := int(m)
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (m-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
