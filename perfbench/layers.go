package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"visa/internal/clab"
	"visa/internal/rt"
	"visa/internal/serve"
	"visa/internal/wal"
)

// layerMetricNames is the per-layer metric set every traced run reports.
// A metric of a layer the workload does not exercise reads 0.
var layerMetricNames = []struct{ name, unit string }{
	{"minic.compile_ms", "ms"},
	{"wcet.pass_ms", "ms"},
	{"wcet.passes", "count"},
	{"wcet.share", "ratio"},
	{"exec.ns_per_inst", "ns"},
	{"simple.ns_per_inst", "ns"},
	{"ooo.ns_per_inst", "ns"},
	{"sim.share", "ratio"},
	{"cache.il1_miss_ratio", "ratio"},
	{"cache.dl1_miss_ratio", "ratio"},
	{"rt.job_ms_p50", "ms"},
	{"rt.render_ms", "ms"},
	{"serve.admit_ms_p50", "ms"},
	{"serve.admit_ms_p90", "ms"},
	{"serve.first_event_ms_p50", "ms"},
	{"obs.events_per_job", "count"},
	{"wal.append_us_p50", "us"},
	{"wal.append_us_p90", "us"},
	{"wal.bytes_per_job", "B"},
	{"trace.overhead_pct", "%"},
}

// journalJob is one finished plan as the daemon journals it.
type journalJob struct {
	spec   rt.PlanSpec
	report string
}

// layerInput is what a traced timed phase hands to the per-layer fold.
type layerInput struct {
	replay   []replayItem
	timed    time.Duration // wall time of the traced repetitions
	instsFed int64         // instructions they fed the timing models (half to each)
	passes   int           // WCET analysis passes they forced
	overhead float64       // trace.overhead_pct

	// journal lists plans whose admit and done entries the wal probe
	// appends. serve-mix passes the daemon's own journal instead, as
	// frames plus the bytes its journal grew by per job.
	journal      []journalJob
	frames       [][]byte
	bytesPerJob  float64
	jobsInFrames int
}

// layers derives the per-layer metrics from the run's spans, the layer
// replay and the wal probe, and fills in 0 for layers the workload does
// not exercise.
func layers(r *run, in layerInput) error {
	spans := r.tr.snapshot()
	self := selfByName(spans)

	var compile float64
	for _, d := range durations(spans, "minic.compile") {
		compile += d
	}
	r.set("minic.compile_ms", "ms", compile, len(durations(spans, "minic.compile")))

	benches := map[string]*clab.Benchmark{}
	var list []*clab.Benchmark
	for _, it := range in.replay {
		if benches[it.bench.Name] == nil {
			benches[it.bench.Name] = it.bench
			list = append(list, it.bench)
		}
	}
	passMs, n, err := replayAnalysis(list)
	if err != nil {
		return err
	}
	r.set("wcet.pass_ms", "ms", passMs, n)
	r.set("wcet.passes", "count", float64(in.passes), 1)
	r.set("wcet.share", "ratio", self["wcet.table"].Seconds()/in.timed.Seconds(), len(durations(spans, "wcet.table")))

	st, err := replayLayers(in.replay, time.Second)
	if err != nil {
		return err
	}
	r.set("exec.ns_per_inst", "ns", st.execNs, st.rounds)
	r.set("simple.ns_per_inst", "ns", st.simpleNs, st.rounds)
	r.set("ooo.ns_per_inst", "ns", st.oooNs, st.rounds)
	half := float64(in.instsFed) / 2
	simNs := half*(st.execNs+st.oooNs) + half*(st.execNs+st.simpleNs)
	r.set("sim.share", "ratio", simNs/float64(in.timed.Nanoseconds()), st.rounds)
	r.set("cache.il1_miss_ratio", "ratio", st.il1.MissRate(), int(st.il1.Accesses))
	r.set("cache.dl1_miss_ratio", "ratio", st.dl1.MissRate(), int(st.dl1.Accesses))

	if jobs := durations(spans, "rt.job"); len(jobs) > 0 {
		r.set("rt.job_ms_p50", "ms", percentile(jobs, 50), len(jobs))
	}
	if renders := durations(spans, "rt.render"); len(renders) > 0 {
		r.set("rt.render_ms", "ms", median(renders), len(renders))
	}
	if err := walProbe(r, in); err != nil {
		return err
	}
	r.set("trace.overhead_pct", "%", in.overhead, 1)
	for _, m := range layerMetricNames {
		if _, ok := r.metrics[m.name]; !ok {
			r.set(m.name, m.unit, 0, 0)
		}
	}
	return nil
}

// walAppends is the least number of appends the wal probe times, enough
// for ten samples beyond p90.
const walAppends = 110

// walProbe times wal.Writer.Append on a journal the benchmark owns, with
// the daemon's default sync policy, appending the frames the daemon would
// journal for the workload's plans (cycled until walAppends appends).
func walProbe(r *run, in layerInput) error {
	frames, jobs := in.frames, in.jobsInFrames
	if len(frames) == 0 {
		for i, j := range in.journal {
			spec, err := j.spec.Encode()
			if err != nil {
				return err
			}
			id := fmt.Sprintf("j%06d", i+1)
			for _, e := range []serve.JournalEntry{
				{Type: "admit", ID: id, Client: "perfbench", Spec: spec},
				{Type: "done", ID: id, Status: serve.StatusDone, ReportHash: rt.ReportHash(j.report), Report: j.report},
			} {
				b, err := serve.EncodeJournalEntry(e)
				if err != nil {
					return err
				}
				frames = append(frames, b)
			}
		}
		jobs = len(in.journal)
	}
	if len(frames) == 0 {
		return nil
	}
	w, _, _, err := wal.Open(filepath.Join(r.tmp, "probe.wal"), serve.Config{}.JournalSync)
	if err != nil {
		return err
	}
	var lat []float64
	var frameBytes int64
	for i := 0; i < walAppends || i < len(frames); i++ {
		f := frames[i%len(frames)]
		t0 := time.Now()
		err := w.Append(f)
		lat = append(lat, us(time.Since(t0)))
		if err != nil {
			w.Close()
			return err
		}
		if i < len(frames) {
			frameBytes += int64(len(f)) + 8 // length and CRC header
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	if err := os.Remove(w.Path()); err != nil {
		return err
	}
	r.set("wal.append_us_p50", "us", percentile(lat, 50), len(lat))
	r.set("wal.append_us_p90", "us", percentile(lat, 90), len(lat))
	perJob := in.bytesPerJob
	if perJob == 0 && jobs > 0 {
		perJob = float64(frameBytes) / float64(jobs)
	}
	r.set("wal.bytes_per_job", "B", perJob, jobs)
	return nil
}

// overheadPct compares the median traced repetition with the median
// untraced one.
func overheadPct(plain, traced []float64) float64 {
	if len(plain) == 0 || len(traced) == 0 {
		return 0
	}
	return (median(traced)/median(plain) - 1) * 100
}
