// Command perfbench is the repository benchmark. It drives the public APIs
// of rt, serve, wal, wcet, exec, simple, ooo and cache on one of three
// seeded workloads, checks every output against golden report hashes and
// offline re-runs, and prints its metrics, the last line being one JSON
// object:
//
//	perfbench --workload paper-eval|wcet-sweep|serve-mix --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// re-runs the timed phase with spans around every call it makes into a
// layer, replays the workload's instruction streams through the timing
// models, and reports the per-layer metrics. --steady N repeats every
// workload N times with distinct seeds and prints each metric's median
// and spread. README.md describes the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outDir holds traces and scratch journals, relative to the checkout root.
const outDir = ".bench_build/perfbench"

// Set-up time is the median over fresh processes: at least
// minSetupSamples, and more (up to maxSetupSamples) until minSetupCPU of
// set-up has been measured, so a cheap set-up gets more samples.
const (
	minSetupSamples = 3
	maxSetupSamples = 15
	minSetupCPU     = 3 // seconds
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

// run is one benchmark invocation's shared state: its inputs, the span
// recorder (nil when untraced), the operation tally and the metrics.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	tr       *recorder
	tmp      string
	// setupSpan parents the spans recorded during set-up.
	setupSpan int
	// rssMB is the peak resident set when the rssReps-th timed
	// repetition ended.
	rssMB float64

	attempted, failed int
	metrics           map[string]metric
	samples           map[string]int
	// notes are figures printed in the summary but kept out of the JSON
	// result, whose metric set is the same for every workload.
	notes map[string]metric
}

// op records one checked operation; a non-nil err counts it as failed.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %v\n", err)
	}
}

// set records a metric with the number of samples behind it.
func (r *run) set(name, unit string, v float64, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// note records a summary-only figure.
func (r *run) note(name, unit string, v float64, n int) {
	r.notes[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// workload is one seeded input set. setup builds everything the timed
// phase needs (timed as setup_s); measure runs the timed phase, checks
// its outputs and records metrics; close releases what setup acquired.
type workload interface {
	setup(r *run) error
	measure(r *run) error
	close() error
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "paper-eval":
		return newPaperEval(), nil
	case "wcet-sweep":
		return newWCETSweep(seed), nil
	case "serve-mix":
		return newServeMix(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper-eval, wcet-sweep or serve-mix)", name)
}

// workloadNames are the workloads BENCHMARK.json lists, the ones --steady
// repeats by default. wcet-sweep is left out: its runs spread too much for
// the benchmark's bounds (README.md, "Workloads"), but it still runs on
// request.
var workloadNames = []string{"paper-eval", "serve-mix"}

func main() {
	name := flag.String("workload", "", "workload: paper-eval, wcet-sweep or serve-mix")
	seed := flag.Uint64("seed", DefaultSeed, "input seed")
	seconds := flag.Float64("seconds", 10, "minimum measured time per run")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	setupOnly := flag.Bool("setup-only", false, "time one set-up in this process and print its seconds (used for setup_s samples)")
	steady := flag.Int("steady", 0, "repeat each workload (or --workload) this many times and print medians and spreads")
	flag.Parse()

	if *steady > 0 {
		if err := steadiness(*name, *steady, *seed, *seconds); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		os.Exit(2)
	}
	res, err := benchmark(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *setupOnly)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if res == nil {
		return // --setup-only printed its sample
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func benchmark(name string, seed uint64, seconds time.Duration, traced, setupOnly bool) (*result, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(mustMkdir(outDir), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	r := &run{workload: name, seed: seed, seconds: seconds, tmp: tmp,
		metrics: map[string]metric{}, samples: map[string]int{}, notes: map[string]metric{}}
	if traced {
		r.tr = newRecorder()
	}

	var setups []float64
	total := 0.0
	// Leave room for the sample this process takes itself.
	for !setupOnly && !traced && len(setups) < maxSetupSamples-1 &&
		(len(setups) < minSetupSamples-1 || total < minSetupCPU) {
		s, err := setupChild(name, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
		total += s
	}
	r.setupSpan = r.tr.begin("setup", 0, -1)
	c0 := cpuTime()
	err = w.setup(r)
	setups = append(setups, (cpuTime() - c0).Seconds())
	r.tr.end(r.setupSpan)
	defer func() {
		if cerr := w.close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: close: %v\n", cerr)
		}
	}()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if setupOnly {
		fmt.Println(strconv.FormatFloat(setups[0], 'g', -1, 64))
		return nil, nil
	}
	if err := w.measure(r); err != nil {
		return nil, err
	}
	if traced {
		if err := writeTrace(r); err != nil {
			return nil, err
		}
	} else {
		r.set("setup_s", "s", median(setups), len(setups))
		r.set("peak_rss_mb", "MB", r.rssMB, 1)
	}
	summarize(r)
	return &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}, nil
}

// setupChild times one cold set-up in a fresh process: rt.GetSetup memoizes
// per process, so a second set-up in this one would measure nothing.
func setupChild(name string, seed uint64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed, 10), "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("setup sample: %w", err)
	}
	return strconv.ParseFloat(lastLine(out), 64)
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return strings.TrimSpace(lines[len(lines)-1])
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	return dir
}

// cpuTime is the CPU time this process has used, user and system. Host
// time in the end-to-end metrics is CPU time, not wall time: on a virtual
// machine whose CPUs are shared, wall time also counts the time the host
// ran other guests (steal), which swung wall-clock rates by ±17% between
// repetitions of identical work while CPU-time rates stayed within ±6%.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// writeTrace writes the run's spans where a Chrome trace viewer can open them.
func writeTrace(r *run) error {
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", r.workload, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := writeChrome(bw, r.tr.snapshot()); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return f.Close()
}

// summarize prints every metric with its unit and sample count for people;
// the JSON line that follows is for programs.
func summarize(r *run) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s  seed %d  operations %d  failed %d\n", r.workload, r.seed, r.attempted, r.failed)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("  %-26s %14.6g %-8s n=%d\n", n, m.Value, m.Unit, r.samples[n])
	}
	for n, m := range r.notes {
		fmt.Printf("  %-26s %14.6g %-8s n=%d (summary only)\n", n, m.Value, m.Unit, r.samples[n])
	}
}

// parseResult reads the JSON result from the last line of a run's output.
func parseResult(out []byte) (*result, error) {
	var res result
	dec := json.NewDecoder(bytes.NewReader([]byte(lastLine(out))))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return nil, fmt.Errorf("parse result: %w", err)
	}
	if res.Metrics == nil {
		return nil, errors.New("parse result: no metrics")
	}
	return &res, nil
}
