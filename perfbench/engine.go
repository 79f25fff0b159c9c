package main

import (
	"fmt"
	"reflect"
	"slices"
	"time"

	"visa/internal/clab"
	"visa/internal/core"
	"visa/internal/exec"
	"visa/internal/isa"
	"visa/internal/obs"
	"visa/internal/power"
	"visa/internal/rt"
	"visa/internal/wcet"
)

// engineRep is one timed repetition of a plan on a one-worker rt.Engine.
type engineRep struct {
	report *rt.Report
	err    error
	// wall and cpu are the repetition's wall and process CPU time.
	wall, cpu time.Duration
	// done holds each job's latency from the plan's submission (Run's
	// start) to its OnJobDone, in process CPU time: with one worker the
	// jobs complete one after another, so it accumulates their costs.
	done []time.Duration
	// passes counts the WCET analysis passes of cold tables.
	passes int
}

// runPlan runs plan once on a one-worker engine. Untraced, and with cold
// unset, the benchmark touches the engine only through its OnJobDone hook.
// Otherwise each comparison job's Run is replaced by the same public call,
// rt.RunComparison, wrapped in spans, and with cold set each job first
// analyses its benchmark afresh at its boosted operating points (see
// coldTable). Either way the report is the one the plan itself produces.
func runPlan(plan *rt.Plan, tr *recorder, req int, cold bool) engineRep {
	var out engineRep
	root := tr.begin("plan", 0, req)
	run := tr.begin("rt.run", root, req)
	if tr != nil || cold {
		for i := range plan.Jobs {
			job := plan.Jobs[i]
			plan.Jobs[i].Run = func(*obs.Sink) (rt.JobResult, error) {
				js := tr.begin("rt.job", run, req)
				defer tr.end(js)
				var table *core.WCETTable
				if cold {
					w := tr.begin("wcet.table", js, req)
					t, err := coldTable(job.Bench, job.Config.FreqAdvantage)
					tr.end(w)
					if err != nil {
						return rt.JobResult{}, err
					}
					table = t
					out.passes += len(t.Points)
				}
				c := tr.begin("rt.comparison", js, req)
				row, err := rt.RunComparison(job.Bench, job.Config)
				tr.end(c)
				if err == nil && cold {
					err = sameBoostedTable(job.Bench, job.Config.FreqAdvantage, table)
				}
				return rt.JobResult{Savings: row}, err
			}
		}
	}
	start, startCPU := time.Now(), cpuTime()
	lastDone := tr.now()
	eng := &rt.Engine{Workers: 1, OnJobDone: func(int, rt.JobResult, []obs.Record, error) {
		out.done = append(out.done, cpuTime()-startCPU)
		lastDone = tr.now()
	}}
	out.report, out.err = eng.Run(plan)
	out.wall, out.cpu = time.Since(start), cpuTime()-startCPU
	tr.add("rt.render", run, req, lastDone, tr.now())
	tr.end(run)
	tr.end(root)
	return out
}

// coldTable analyses b's program with a fresh wcet.Analyzer (configured
// as rt's set-up configures its own: the profiled D-cache pad) at every
// operating point scaled by the frequency advantage adv, as
// rt.Setup.BoostedTable does. A fresh analyzer is what a new program
// version or a restarted daemon pays: rt's set-up analyzer memoizes loop
// summaries per miss penalty, so after a few advantages its boosted tables
// cost almost nothing and would not measure analysis at all.
func coldTable(b *clab.Benchmark, adv float64) (*core.WCETTable, error) {
	s, err := rt.GetSetup(b)
	if err != nil {
		return nil, err
	}
	an, err := wcet.New(s.Prog)
	if err != nil {
		return nil, err
	}
	if err := an.SetDCachePad(s.DPad); err != nil {
		return nil, err
	}
	pts := power.Points()
	for i := range pts {
		pts[i].FMHz = int(float64(pts[i].FMHz) * adv)
	}
	return core.BuildWCETTableAt(an, pts)
}

// sameBoostedTable checks the cold analysis against the boosted table the
// job itself used: the memoized and the fresh analyzer must agree.
func sameBoostedTable(b *clab.Benchmark, adv float64, cold *core.WCETTable) error {
	s, err := rt.GetSetup(b)
	if err != nil {
		return err
	}
	warm, err := s.BoostedTable(adv)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(warm.Points, cold.Points) || !reflect.DeepEqual(warm.Cycles, cold.Cycles) {
		return fmt.Errorf("%s: fresh WCET analysis at advantage %g differs from rt's boosted table", b.Name, adv)
	}
	return nil
}

// checkReport is the correctness gate for one engine report: no engine or
// job error, no deadline violation or WCET exceedance in any row, and,
// when a golden hash is known, the report bytes hash to it.
func checkReport(rep *rt.Report, err error, golden string) error {
	if err != nil {
		return err
	}
	if rep.Failed > 0 {
		return rep.Err()
	}
	for _, row := range rep.SavingsRows() {
		for _, p := range []*rt.ProcResult{row.Complex, row.Simple} {
			if p.DeadlineViolations != 0 || p.WCETExceedances != 0 {
				return fmt.Errorf("%s/%s: %d deadline violations, %d WCET exceedances",
					row.Name, p.Name, p.DeadlineViolations, p.WCETExceedances)
			}
		}
	}
	if golden != "" {
		if got := rt.ReportHash(rep.Text); got != golden {
			return fmt.Errorf("plan %s: report hash %s, golden %s", rep.Plan.Name, got, golden)
		}
	}
	return nil
}

// setupBenches is the set-up every workload shares: compile each program
// and build its rt.Setup (profiling runs plus the 37-point WCET table).
// rt.GetSetup compiles through the same cached clab.Benchmark.Program, so
// calling it first only makes compilation visible as its own span.
func setupBenches(r *run, benches []*clab.Benchmark) error {
	for _, b := range benches {
		c := r.tr.begin("minic.compile", r.setupSpan, -1)
		_, err := b.Program()
		r.tr.end(c)
		if err != nil {
			return err
		}
		g := r.tr.begin("rt.setup", r.setupSpan, -1)
		_, err = rt.GetSetup(b)
		r.tr.end(g)
		if err != nil {
			return err
		}
	}
	return nil
}

// instanceSeed is the input seed rt gives task instance i of a run with
// VaryInputSeeds (0, the baked-in input, without it). The benchmark needs
// it to count the instructions a run feeds its timing models.
func instanceSeed(vary bool, i int) int32 {
	if !vary {
		return 0
	}
	return int32(1e6 + i*7919)
}

// instCounter counts the dynamic instructions of one task instance per
// (program, input seed), executing each pair once.
type instCounter map[instKey]int64

type instKey struct {
	prog string
	seed int32
}

func (c instCounter) count(prog *isa.Program, seed int32) (int64, error) {
	k := instKey{prog.Name, seed}
	if n, ok := c[k]; ok {
		return n, nil
	}
	m := exec.New(prog)
	if seed != 0 {
		if err := clab.SetSeed(m, seed); err != nil {
			return 0, err
		}
	}
	var batch [64]exec.DynInst
	for {
		n, err := m.Fill(batch[:])
		if err != nil {
			return 0, err
		}
		if n < len(batch) {
			break
		}
	}
	c[k] = m.Seq
	return m.Seq, nil
}

// jobInsts is the number of instructions a comparison job feeds its two
// timing models: every instance runs on both processors.
func (c instCounter) jobInsts(b *clab.Benchmark, cfg rt.ConfigSpec) (int64, error) {
	prog, err := b.Program()
	if err != nil {
		return 0, err
	}
	n := cfg.Instances
	if n == 0 {
		n = rt.Instances
	}
	var total int64
	for i := 0; i < n; i++ {
		k, err := c.count(prog, instanceSeed(cfg.VaryInputSeeds, i))
		if err != nil {
			return 0, err
		}
		total += 2 * k
	}
	return total, nil
}

// timedLoop repeats rep until at least r.seconds have passed and more(n)
// reports false for the repetitions so far; it gives up after maxRun so a
// run always ends inside the benchmark's time limit. It reads the peak
// resident set when the rssReps-th repetition ends.
func timedLoop(r *run, more func(reps int) bool, rep func(i int)) error {
	const maxRun = 120 * time.Second
	start := time.Now()
	for i := 0; ; i++ {
		if time.Since(start) >= r.seconds && !more(i) {
			return nil
		}
		if time.Since(start) > maxRun {
			return fmt.Errorf("%s: sample targets not met within %s", r.workload, maxRun)
		}
		rep(i)
		if i+1 == rssReps {
			r.rssMB = peakRSSMB()
		}
	}
}

// rssReps is the number of timed repetitions peak_rss_mb covers. A fixed
// count keeps the figure independent of how many repetitions a run fits
// in: the daemon keeps every job it ran, so on serve-mix a faster program
// would otherwise show a larger peak.
const rssReps = 3

// jobTimes holds, per job of a plan, the CPU time of each of its runs.
type jobTimes [][]time.Duration

// add records one repetition from its jobs' done latencies: one worker
// runs the jobs one after another, so a job's CPU time is the gap between
// its done latency and the previous job's.
func (t *jobTimes) add(done []time.Duration) {
	for len(*t) < len(done) {
		*t = append(*t, nil)
	}
	prev := time.Duration(0)
	for j, d := range done {
		(*t)[j] = append((*t)[j], d-prev)
		prev = d
	}
}

// report sets the host-time metrics of a plan workload from each job's
// best CPU time: the insts instructions one repetition feeds the timing
// models, and the jobs, over the sum of the best times; and the done
// latencies of a repetition whose jobs all take their best times. It
// returns that sum.
//
// The work is deterministic, so noise only ever adds time, and other
// guests slow this one in phases from milliseconds to minutes. A job takes
// tens of milliseconds and runs a dozen times or more in a run, so its
// best run falls in a quiet moment even when most of the run does not; a
// mean or median over the run follows the phases (README.md, "Steadiness").
func (t jobTimes) report(r *run, insts int64) (time.Duration, error) {
	if len(t) == 0 {
		return 0, fmt.Errorf("%s: no repetition completed", r.workload)
	}
	var total time.Duration
	var done []float64
	runs := 0
	for _, ds := range t {
		total += slices.Min(ds)
		done = append(done, ms(total))
		runs += len(ds)
	}
	r.set("sim_minst_per_s", "Minst/s", float64(insts)/total.Seconds()/1e6, runs)
	r.set("jobs_per_s", "1/s", float64(len(t))/total.Seconds(), runs)
	r.set("done_ms_p50", "ms", percentile(done, 50), len(done))
	r.set("done_ms_p90", "ms", percentile(done, 90), len(done))
	return total, nil
}
