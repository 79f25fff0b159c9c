package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"visa/internal/clab"
	"visa/internal/fault"
	"visa/internal/rt"
	"visa/internal/serve"
	"visa/internal/wal"
)

// The serve-mix plan mix: one single-job custom plan per benchmark per
// instance count, so every seed submits the same amount of simulation and
// only the order, the deadline, the perturbation (cache flushes, a fault
// plan or varied input seeds) and its parameters vary with the seed.
var (
	mixBenches  = []string{"cnt", "fft", "lms", "mm", "srt"}
	mixPatterns = []int{mixPlain, mixPlain, mixPlain, mixFlush, mixFlush, mixFault, mixFault, mixVary, mixVary}
)

const (
	mixMinInstances = 2 // instance counts run 2..10, one per pattern slot
	mixClients      = 2 // closed-loop clients
	// mixWorkers is the daemon's pool. With one worker the daemon runs one
	// job at a time and is never idle while a client waits, so a job's
	// latency can be read on the process CPU clock, which leaves out the
	// time the virtual machine was descheduled; with two, latency had to be
	// wall time. The second client's job waits in the queue, so admission
	// and queueing are part of every latency.
	mixWorkers = 1
)

const (
	mixPlain = iota
	mixFlush
	mixFault
	mixVary
)

// serveMix runs the daemon in-process on loopback: serve.Open with a
// journal in the run's scratch directory and the default fsync policy, a
// pool of one worker with one engine worker. Two closed-loop clients
// submit the mix and follow each job's stream to "done" before submitting
// again: visad's callers wait for each report.
type serveMix struct {
	seed    uint64
	specs   []rt.PlanSpec
	bodies  [][]byte
	insts   int64 // instructions one pass over the mix feeds the timing models
	counter instCounter

	journal string
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
}

func newServeMix(seed uint64) *serveMix {
	m := &serveMix{seed: seed, counter: instCounter{}}
	rng := newRNG(seed, "serve-mix")
	kinds := fault.Kinds()
	for _, b := range mixBenches {
		pats := append([]int(nil), mixPatterns...)
		rng.shuffle(len(pats), func(i, j int) { pats[i], pats[j] = pats[j], pats[i] })
		for k, pat := range pats {
			n := mixMinInstances + k
			cfg := rt.ConfigSpec{Instances: n, Tight: rng.intn(2) == 0}
			switch pat {
			case mixFlush:
				cfg.FlushTasks = 1 + rng.intn(n/2)
			case mixFault:
				cfg.Fault = fault.Spec{Kind: kinds[rng.intn(len(kinds))], Rate: []int{10, 50, 100}[rng.intn(3)],
					Cycles: []int64{32, 64, 128}[rng.intn(3)], Seed: rng.next() % 1_000_000}.String()
			case mixVary:
				cfg.VaryInputSeeds = true
			}
			m.specs = append(m.specs, rt.PlanSpec{Version: rt.SpecVersion, Kind: rt.PlanCustom,
				Name: fmt.Sprintf("mix-%s-%d", b, n),
				Jobs: []rt.JobSpec{{Version: rt.SpecVersion, Bench: b, Config: cfg}}})
		}
	}
	rng.shuffle(len(m.specs), func(i, j int) { m.specs[i], m.specs[j] = m.specs[j], m.specs[i] })
	return m
}

func (m *serveMix) setup(r *run) error {
	m.bodies = m.bodies[:0]
	for _, s := range m.specs {
		b, err := s.Encode()
		if err != nil {
			return err
		}
		m.bodies = append(m.bodies, b)
	}
	m.journal = filepath.Join(r.tmp, "visad.wal")
	o := r.tr.begin("serve.open", r.setupSpan, -1)
	srv, _, err := serve.Open(serve.Config{JournalPath: m.journal, PoolWorkers: mixWorkers, EngineWorkers: 1})
	r.tr.end(o)
	if err != nil {
		return err
	}
	m.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	m.client = &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: mixClients}}
	m.hs = &http.Server{Handler: srv.Handler()}
	m.served = make(chan error, 1)
	go func() { m.served <- m.hs.Serve(ln) }()
	m.base = "http://" + ln.Addr().String()

	var benches []*clab.Benchmark
	for _, name := range mixBenches {
		benches = append(benches, clab.ByName(name))
	}
	if err := setupBenches(r, benches); err != nil {
		return err
	}
	// One warm-up job per benchmark through the daemon, so the timed
	// phase starts with every set-up built and every code path run once.
	for i, name := range mixBenches {
		spec := rt.PlanSpec{Version: rt.SpecVersion, Kind: rt.PlanCustom, Name: "warm-up",
			Jobs: []rt.JobSpec{{Version: rt.SpecVersion, Bench: name, Config: rt.ConfigSpec{Instances: mixMinInstances}}}}
		body, err := spec.Encode()
		if err != nil {
			return err
		}
		if j := m.runJob(nil, 0, -1-i, body); j.err != nil {
			return fmt.Errorf("warm-up %s: %w", name, j.err)
		}
	}
	return nil
}

func (m *serveMix) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var err error
	if m.hs != nil {
		m.client.CloseIdleConnections()
		err = m.hs.Shutdown(ctx)
		if serr := <-m.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
	}
	if m.srv != nil {
		if derr := m.srv.Drain(ctx); err == nil {
			err = derr
		}
	}
	return err
}

// jobObs is one submission as the client saw it. cpuSubmit and cpuDone
// read the process CPU clock at submission and at the done event.
type jobObs struct {
	spec                                     int
	submit, accepted, first, lastJob, report time.Time
	done                                     time.Time
	cpuSubmit, cpuDone                       time.Duration
	events                                   int
	text                                     string
	err                                      error
}

// runJob submits body and follows the job's stream to its done event.
// A 429 is retried after its Retry-After; any other non-2xx response, a
// failed job or a stream that ends early is an error.
func (m *serveMix) runJob(tr *recorder, client, spec int, body []byte) jobObs {
	j := jobObs{spec: spec, submit: time.Now(), cpuSubmit: cpuTime()}
	var id string
	for {
		req, err := http.NewRequest(http.MethodPost, m.base+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			j.err = err
			return j
		}
		req.Header.Set("X-Client-ID", "perfbench-"+strconv.Itoa(client))
		resp, err := m.client.Do(req)
		if err != nil {
			j.err = err
			return j
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			j.err = err
			return j
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			wait, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			time.Sleep(time.Duration(max(wait, 1)) * time.Second)
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			j.err = fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
			return j
		}
		var sr serve.SubmitResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			j.err = fmt.Errorf("submit: %w", err)
			return j
		}
		id = sr.ID
		break
	}
	j.accepted = time.Now()

	resp, err := m.client.Get(m.base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		j.err = err
		return j
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		j.err = fmt.Errorf("stream %s: HTTP %d", id, resp.StatusCode)
		return j
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		now := time.Now()
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			j.err = fmt.Errorf("stream %s: %w", id, err)
			return j
		}
		if j.events == 0 {
			j.first = now
		}
		j.events++
		switch ev.Type {
		case "job":
			j.lastJob = now
			if !ev.OK {
				j.err = fmt.Errorf("job %s: %s", id, ev.Error)
			}
		case "report":
			j.report, j.text = now, ev.Text
			if ev.Failed > 0 && j.err == nil {
				j.err = fmt.Errorf("job %s: %d failed plan jobs", id, ev.Failed)
			}
		case "done":
			j.done, j.cpuDone = now, cpuTime()
			if ev.Status != serve.StatusDone && j.err == nil {
				j.err = fmt.Errorf("job %s: status %s %s", id, ev.Status, ev.Error)
			}
			m.spans(tr, client, &j)
			return j
		}
	}
	if err := sc.Err(); err != nil {
		j.err = err
	} else if j.err == nil {
		j.err = fmt.Errorf("stream %s ended before done", id)
	}
	return j
}

// spans records one job's client-side spans: admission (POST to 202), the
// wait for its first streamed event, the plan job (202 to its "job"
// event), rendering (last "job" event to "report") and the whole stream.
func (m *serveMix) spans(tr *recorder, client int, j *jobObs) {
	if tr == nil {
		return
	}
	at := func(t time.Time) time.Duration { return t.Sub(tr.epoch) }
	root := tr.add("serve.job", 0, j.spec, at(j.submit), at(j.done))
	tr.add("serve.admit", root, j.spec, at(j.submit), at(j.accepted))
	st := tr.add("serve.stream", root, j.spec, at(j.accepted), at(j.done))
	tr.add("serve.first_event", st, j.spec, at(j.accepted), at(j.first))
	if !j.lastJob.IsZero() {
		tr.add("rt.job", st, j.spec, at(j.accepted), at(j.lastJob))
		if !j.report.IsZero() {
			tr.add("rt.render", st, j.spec, at(j.lastJob), at(j.report))
		}
	}
}

// cycle submits every spec of the mix once through the closed-loop
// clients and returns what each saw, in spec order, and the process CPU
// and wall time the cycle took.
func (m *serveMix) cycle(tr *recorder) ([]jobObs, time.Duration, time.Duration) {
	out := make([]jobObs, len(m.specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start, startCPU := time.Now(), cpuTime()
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(m.specs) {
					return
				}
				out[i] = m.runJob(tr, c, i, m.bodies[i])
			}
		}()
	}
	wg.Wait()
	return out, cpuTime() - startCPU, time.Since(start)
}

func (m *serveMix) prepare() error {
	m.insts = 0
	for _, s := range m.specs {
		n, err := m.counter.jobInsts(clab.ByName(s.Jobs[0].Bench), s.Jobs[0].Config)
		if err != nil {
			return err
		}
		m.insts += n
	}
	return nil
}

func (m *serveMix) measure(r *run) error {
	if err := m.prepare(); err != nil {
		return err
	}
	if r.tr != nil {
		return m.measureTraced(r)
	}
	// The daemon's plans cannot be timed one by one from outside it: a
	// client reads the CPU clock some time after the worker has moved on.
	// So the rates are the whole run's work over its CPU time, and the
	// latencies percentiles over every job.
	var all []jobObs
	var cpu time.Duration
	var done []float64
	passes := 0
	err := timedLoop(r, func(reps int) bool { return reps < rssReps || beyond(len(done), 90) < minBeyond }, func(int) {
		obs, c, _ := m.cycle(nil)
		all = append(all, obs...)
		cpu += c
		passes++
		for _, j := range obs {
			if j.err == nil {
				done = append(done, ms(j.cpuDone-j.cpuSubmit))
			}
		}
	})
	if err != nil {
		return err
	}
	if err := m.verify(r, all); err != nil {
		return err
	}
	r.set("sim_minst_per_s", "Minst/s", float64(m.insts)*float64(passes)/cpu.Seconds()/1e6, passes)
	r.set("jobs_per_s", "1/s", float64(len(done))/cpu.Seconds(), passes)
	r.set("done_ms_p50", "ms", percentile(done, 50), len(done))
	r.set("done_ms_p90", "ms", percentile(done, 90), len(done))
	return nil
}

// verify is the serve-mix correctness gate: every job finished, and its
// streamed report equals an offline rt.Engine run of the same spec, which
// itself passes checkReport (and its golden hash at the default seed).
func (m *serveMix) verify(r *run, all []jobObs) error {
	want := make([]string, len(m.specs))
	bad := make([]error, len(m.specs))
	for i, s := range m.specs {
		plan, err := s.Plan()
		if err != nil {
			return err
		}
		rep, err := (&rt.Engine{Workers: 1, CycleBudget: serve.DefaultCycleBudget}).Run(plan)
		golden := ""
		if g, ok := goldenServeMix[m.seed]; ok {
			golden = g[i]
		}
		if bad[i] = checkReport(rep, err, golden); bad[i] == nil {
			want[i] = rep.Text
		}
	}
	for _, j := range all {
		switch {
		case j.err != nil:
			r.op(j.err)
		case bad[j.spec] != nil:
			r.op(fmt.Errorf("%s: %w", m.specs[j.spec].Name, bad[j.spec]))
		case j.text != want[j.spec]:
			r.op(fmt.Errorf("%s: streamed report differs from the offline run", m.specs[j.spec].Name))
		default:
			r.op(nil)
		}
	}
	return nil
}

func (m *serveMix) measureTraced(r *run) error {
	before, err := fileSize(m.journal)
	if err != nil {
		return err
	}
	var all []jobObs
	var plain, traced []float64
	var timed time.Duration
	tracedJobs, events := 0, 0
	err = timedLoop(r, func(reps int) bool { return reps < 5 || beyond(tracedJobs, 90) < minBeyond }, func(i int) {
		var tr *recorder
		if i%2 == 1 {
			tr = r.tr
		}
		obs, cpu, wall := m.cycle(tr)
		all = append(all, obs...)
		if i == 0 {
			return // warm-up, kept out of the overhead comparison
		}
		if tr == nil {
			plain = append(plain, cpu.Seconds())
			return
		}
		traced = append(traced, cpu.Seconds())
		timed += wall
		tracedJobs += len(obs)
		for _, j := range obs {
			events += j.events
		}
	})
	if err != nil {
		return err
	}
	if err := m.verify(r, all); err != nil {
		return err
	}
	spans := r.tr.snapshot()
	admit := durations(spans, "serve.admit")
	r.set("serve.admit_ms_p50", "ms", percentile(admit, 50), len(admit))
	r.set("serve.admit_ms_p90", "ms", percentile(admit, 90), len(admit))
	first := durations(spans, "serve.first_event")
	r.set("serve.first_event_ms_p50", "ms", percentile(first, 50), len(first))
	r.set("obs.events_per_job", "count", float64(events)/float64(tracedJobs), tracedJobs)

	after, err := fileSize(m.journal)
	if err != nil {
		return err
	}
	frames, err := journalFrames(m.journal)
	if err != nil {
		return err
	}
	items := make([]replayItem, len(m.specs))
	for i, s := range m.specs {
		cfg := s.Jobs[0].Config
		items[i] = replayItem{bench: clab.ByName(s.Jobs[0].Bench), seeds: seedsFor(cfg.VaryInputSeeds, cfg.Instances)}
	}
	return layers(r, layerInput{
		replay:       items,
		timed:        timed * mixWorkers,
		instsFed:     m.insts * int64(len(traced)),
		overhead:     overheadPct(plain, traced),
		frames:       frames,
		bytesPerJob:  float64(after-before) / float64(len(all)),
		jobsInFrames: len(all),
	})
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// journalFrames reads the daemon's journal records, the frames the wal
// probe re-appends.
func journalFrames(path string) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, _, _, err := wal.Replay(f)
	return recs, err
}
