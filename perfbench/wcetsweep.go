package main

import (
	"fmt"
	"time"

	"visa/internal/clab"
	"visa/internal/rt"
)

// sweepInstances is the task-instance count of each wcet-sweep job: few
// instances keep the timing models a small share of the work.
const sweepInstances = 2

// wcetSweep is the analysis-bound workload: one job per benchmark, each
// with a seeded frequency advantage in (1, 2], a few instances and varied
// input seeds. Each job first analyses its benchmark cold at its 37
// boosted operating points (coldTable), then runs the comparison, whose
// own boosted table must match. WCET analysis does most of the work and
// the timing models little, so a simulator-only change should leave this
// workload unchanged while an analyzer change moves it.
type wcetSweep struct {
	seed    uint64
	benches []*clab.Benchmark
	spec    rt.PlanSpec
	insts   int64 // instructions one repetition feeds the timing models
	counter instCounter
	first   string // report hash of the first repetition
}

func newWCETSweep(seed uint64) *wcetSweep {
	w := &wcetSweep{seed: seed, benches: clab.All(), counter: instCounter{}}
	rng := newRNG(seed, "wcet-sweep")
	w.spec = rt.PlanSpec{Version: rt.SpecVersion, Kind: rt.PlanCustom, Name: "wcet-sweep"}
	for _, b := range w.benches {
		w.spec.Jobs = append(w.spec.Jobs, rt.JobSpec{Version: rt.SpecVersion, Bench: b.Name,
			Config: rt.ConfigSpec{FreqAdvantage: 1 + rng.unit(), Instances: sweepInstances, VaryInputSeeds: true}})
	}
	return w
}

func (w *wcetSweep) setup(r *run) error { return setupBenches(r, w.benches) }

func (w *wcetSweep) close() error { return nil }

// prepare counts the instructions a repetition feeds the timing models and
// builds rt's own boosted tables once, so that every timed repetition
// does the same work: the cold analyses plus the simulation.
func (w *wcetSweep) prepare() error {
	w.insts = 0
	for _, js := range w.spec.Jobs {
		b := clab.ByName(js.Bench)
		n, err := w.counter.jobInsts(b, js.Config)
		if err != nil {
			return err
		}
		w.insts += n
		s, err := rt.GetSetup(b)
		if err != nil {
			return err
		}
		if _, err := s.BoostedTable(js.Config.FreqAdvantage); err != nil {
			return err
		}
	}
	return nil
}

// rep runs the sweep once and checks it: the golden hash where one is
// recorded, and at every seed the same report as the first repetition.
func (w *wcetSweep) rep(r *run, tr *recorder, i int) engineRep {
	plan, err := w.spec.Plan()
	if err != nil {
		r.op(err)
		return engineRep{err: err}
	}
	rep := runPlan(plan, tr, i, true)
	err = checkReport(rep.report, rep.err, goldenWCETSweep[w.seed])
	if err == nil {
		h := rt.ReportHash(rep.report.Text)
		if w.first == "" {
			w.first = h
		} else if h != w.first {
			err = fmt.Errorf("wcet-sweep: report hash %s, first repetition %s", h, w.first)
		}
	}
	r.op(err)
	return rep
}

func (w *wcetSweep) measure(r *run) error {
	if err := w.prepare(); err != nil {
		return err
	}
	if r.tr != nil {
		return w.measureTraced(r)
	}
	var jobs jobTimes
	passes := 0
	err := timedLoop(r, func(reps int) bool { return reps < rssReps }, func(i int) {
		rep := w.rep(r, nil, i)
		if rep.err != nil {
			return
		}
		jobs.add(rep.done)
		passes = rep.passes
	})
	if err != nil {
		return err
	}
	total, err := jobs.report(r, w.insts)
	if err != nil {
		return err
	}
	r.note("wcet_points_per_s", "1/s", float64(passes)/total.Seconds(), len(jobs))
	return nil
}

func (w *wcetSweep) measureTraced(r *run) error {
	var plain, traced []float64
	var timed time.Duration
	var instsFed int64
	var jobs, passes int
	var text string
	err := timedLoop(r, func(reps int) bool { return reps < 5 || beyond(jobs, 50) < minBeyond }, func(i int) {
		var tr *recorder
		if i%2 == 1 {
			tr = r.tr
		}
		rep := w.rep(r, tr, i)
		if rep.err != nil {
			return
		}
		text = rep.report.Text
		if i == 0 {
			return // warm-up, kept out of the overhead comparison
		}
		if tr == nil {
			plain = append(plain, rep.cpu.Seconds())
			return
		}
		traced = append(traced, rep.cpu.Seconds())
		timed += rep.wall
		instsFed += w.insts
		jobs += len(rep.done)
		passes += rep.passes
	})
	if err != nil {
		return err
	}
	items := make([]replayItem, len(w.benches))
	for i, b := range w.benches {
		items[i] = replayItem{bench: b, seeds: seedsFor(true, sweepInstances)}
	}
	return layers(r, layerInput{
		replay:   items,
		timed:    timed,
		instsFed: instsFed,
		passes:   passes,
		overhead: overheadPct(plain, traced),
		journal:  []journalJob{{spec: w.spec, report: text}},
	})
}
