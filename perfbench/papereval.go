package main

import (
	"time"

	"visa/internal/clab"
	"visa/internal/rt"
)

// paperInstances is the task-instance count of each paper-eval job: five
// instances of each of Figure 2's 24 jobs keep one repetition near 1.5 s
// on a 2-CPU host, so a 10 s run holds enough repetitions for a median.
const paperInstances = 5

// paperEval regenerates Figure 2 over all six benchmarks with fixed
// inputs. After set-up the WCET analyzer does no work: exec, the two
// timing models, the caches and the power model do nearly all of it.
// The seed selects nothing, so every seed checks against one golden hash.
type paperEval struct {
	benches []*clab.Benchmark
	insts   int64 // instructions one repetition feeds the timing models
	counter instCounter
}

func newPaperEval() *paperEval {
	return &paperEval{benches: clab.All(), counter: instCounter{}}
}

func (p *paperEval) plan() *rt.Plan { return rt.Figure2Plan(p.benches, paperInstances) }

func (p *paperEval) setup(r *run) error { return setupBenches(r, p.benches) }

func (p *paperEval) close() error { return nil }

func (p *paperEval) measure(r *run) error {
	p.insts = 0
	for _, job := range p.plan().Jobs {
		n, err := p.counter.jobInsts(job.Bench, rt.ConfigSpec{Instances: paperInstances})
		if err != nil {
			return err
		}
		p.insts += n
	}
	if r.tr != nil {
		return p.measureTraced(r)
	}
	// One untimed repetition first, so the timed ones start warm.
	warm := runPlan(p.plan(), nil, -1, false)
	r.op(checkReport(warm.report, warm.err, goldenPaperEval))
	var jobs jobTimes
	err := timedLoop(r, func(reps int) bool { return reps < rssReps }, func(i int) {
		rep := runPlan(p.plan(), nil, i, false)
		r.op(checkReport(rep.report, rep.err, goldenPaperEval))
		jobs.add(rep.done)
	})
	if err != nil {
		return err
	}
	_, err = jobs.report(r, p.insts)
	return err
}

// measureTraced alternates untraced and traced repetitions (their time
// ratio is the tracing overhead), then derives the per-layer metrics.
func (p *paperEval) measureTraced(r *run) error {
	var plain, traced []float64
	var timed time.Duration
	var jobs int
	var text string
	err := timedLoop(r, func(reps int) bool { return reps < 5 || beyond(jobs, 50) < minBeyond }, func(i int) {
		var tr *recorder
		if i%2 == 1 {
			tr = r.tr
		}
		rep := runPlan(p.plan(), tr, i, false)
		r.op(checkReport(rep.report, rep.err, goldenPaperEval))
		if rep.err == nil {
			text = rep.report.Text
		}
		if i == 0 {
			return // warm-up, kept out of the overhead comparison
		}
		if tr == nil {
			plain = append(plain, rep.cpu.Seconds())
			return
		}
		traced = append(traced, rep.cpu.Seconds())
		timed += rep.wall
		jobs += len(rep.done)
	})
	if err != nil {
		return err
	}
	items := make([]replayItem, len(p.benches))
	for i, b := range p.benches {
		items[i] = replayItem{bench: b, seeds: seedsFor(false, paperInstances)}
	}
	return layers(r, layerInput{
		replay:   items,
		timed:    timed,
		instsFed: p.insts * int64(len(traced)),
		overhead: overheadPct(plain, traced),
		journal:  []journalJob{{spec: rt.PlanSpec{Version: rt.SpecVersion, Kind: rt.PlanFig2, Instances: paperInstances}, report: text}},
	})
}
