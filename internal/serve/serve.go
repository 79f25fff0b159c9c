// Package serve is the simulation-as-a-service layer: it wraps rt.Engine
// behind a persistent worker pool and an HTTP/JSON API (cmd/visad), turning
// the in-process Plan/Job API into a long-running daemon that admits
// simulation jobs from many clients.
//
// The unit of submission is a serialized rt.PlanSpec (POST /v1/jobs); the
// unit of delivery is a job resource with a status document (GET
// /v1/jobs/{id}) and an NDJSON event stream (GET /v1/jobs/{id}/stream)
// carrying per-job results and coalesced counter.flush metrics as they
// complete. Admission is controlled twice: per-client token quotas
// (Quotas) and a bounded work queue (Pool) — both reject instantly with
// typed errors the HTTP layer maps to statuses via errors.Is, never by
// string matching.
//
// The engine's determinism guarantee becomes a service-level property:
// however many engine workers a daemon runs (-j), a submitted plan's
// report text and its event stream after plan-order replay (sort events by
// plan index) are byte-identical — asserted end to end by the e2e tests
// and cmd/visaload.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"visa/internal/obs"
	"visa/internal/rt"
	"visa/internal/wal"
)

// Config parameterizes a Server.
type Config struct {
	// EngineWorkers is the rt.Engine worker count per job (<= 0 selects
	// NumCPU). Any value yields byte-identical responses.
	EngineWorkers int

	// PoolWorkers is the number of plans running concurrently (default 2).
	PoolWorkers int

	// QueueDepth bounds the admitted-but-not-running backlog (default 16).
	QueueDepth int

	// QuotaRate/QuotaBurst set the per-client token bucket (jobs per
	// second / bucket size). Rate 0 disables quotas.
	QuotaRate  float64
	QuotaBurst int

	// CycleBudget is the default per-task-instance simulated-cycle budget
	// applied to every job that does not set its own — the service's
	// timeout in the simulated-time domain (default DefaultCycleBudget;
	// negative disables).
	CycleBudget int64

	// MaxBodyBytes bounds a submission body (default 1 MiB).
	MaxBodyBytes int64

	// JournalPath, when non-empty, makes the server crash-safe: every
	// admission is journaled (write-ahead, internal/wal) before it is
	// queued and every completion before it is observable, so a killed
	// daemon restarted on the same journal rehydrates finished jobs and
	// re-runs incomplete ones. Empty runs the server in memory.
	JournalPath string

	// JournalSync selects the fsync policy for journal appends (default
	// wal.SyncAlways: an acknowledged submission survives power loss).
	JournalSync wal.SyncPolicy

	// QueueTimeout, when > 0, is the per-job admission deadline: a job
	// still waiting for a worker after this long fails with ErrJobTimeout
	// instead of running arbitrarily late. The clock is the service's
	// wall clock (injectable in tests); the simulation itself stays in
	// simulated time.
	QueueTimeout time.Duration
}

// DefaultCycleBudget bounds one task instance to a billion simulated
// cycles — far above any real benchmark instance, low enough that a
// runaway plan cannot pin a worker forever.
const DefaultCycleBudget = 1_000_000_000

func (c Config) withDefaults() Config {
	if c.PoolWorkers < 1 {
		c.PoolWorkers = 2
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 16
	}
	if c.CycleBudget == 0 {
		c.CycleBudget = DefaultCycleBudget
	}
	if c.CycleBudget < 0 {
		c.CycleBudget = 0
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states. StatusRecovered is the post-crash re-admission
// state: the job was journaled but never finished, and a restarted daemon
// has re-queued it — it proceeds to running/done exactly like a queued
// job.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusRecovered Status = "recovered"
)

// ErrJobTimeout reports a job that waited in the admission queue past the
// configured QueueTimeout and was failed without running. Service
// mapping: 504 Gateway Timeout.
var ErrJobTimeout = errors.New("serve: job timed out awaiting execution")

// Event is one NDJSON line of a job's stream. Type "metrics" carries one
// buffered metrics record of plan-job Index (counter.flush records when
// coalescing, which the engine always enables here); "job" marks plan-job
// Index complete; "report" carries the merged plan-order report text;
// "done" closes the stream. Events arrive in completion order — replaying
// them sorted by Index reconstructs the deterministic plan-order stream.
type Event struct {
	Type   string          `json:"type"`
	Index  int             `json:"index,omitempty"`
	OK     bool            `json:"ok,omitempty"`
	Error  string          `json:"error,omitempty"`
	Record json.RawMessage `json:"record,omitempty"`
	Text   string          `json:"text,omitempty"`
	Failed int             `json:"failed,omitempty"`
	Status Status          `json:"status,omitempty"`
}

// jobState is one submitted plan's lifecycle: spec and materialized plan,
// the accumulating event log, and the final report.
type jobState struct {
	id        string
	client    string
	spec      rt.PlanSpec
	plan      *rt.Plan
	admitted  time.Time // when the job entered the queue (admission-deadline clock)
	recovered bool      // rehydrated or re-queued from the journal after a crash

	mu         sync.Mutex
	notify     chan struct{} // closed and replaced on every append/state change
	status     Status
	events     []Event
	report     string
	reportHash string
	failed     int
	errMsg     string
}

func newJobState(id, client string, spec rt.PlanSpec, plan *rt.Plan) *jobState {
	return &jobState{
		id: id, client: client, spec: spec, plan: plan,
		status: StatusQueued, notify: make(chan struct{}),
	}
}

// signal wakes every stream waiting on this job. Callers hold j.mu.
func (j *jobState) signal() {
	close(j.notify)
	j.notify = make(chan struct{})
}

func (j *jobState) setStatus(s Status) {
	j.mu.Lock()
	j.status = s
	j.signal()
	j.mu.Unlock()
}

func (j *jobState) append(evs ...Event) {
	j.mu.Lock()
	j.events = append(j.events, evs...)
	j.signal()
	j.mu.Unlock()
}

// next returns the events after cursor, whether the job reached a terminal
// state, and a channel that closes on the next change — the stream
// handler's long-poll primitive.
func (j *jobState) next(cursor int) (evs []Event, terminal bool, wait <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if cursor < len(j.events) {
		evs = j.events[cursor:len(j.events):len(j.events)]
	}
	return evs, j.status == StatusDone || j.status == StatusFailed, j.notify
}

// Durable counter keys: the service counters whose values survive a
// restart through the journal (exact for the job counters, last journaled
// total for the rejection counters).
const (
	keySubmitted     = "serve.jobs.submitted"
	keyCompleted     = "serve.jobs.completed"
	keyFailed        = "serve.jobs.failed"
	keyRejectedQuota = "serve.jobs.rejected_quota"
	keyRejectedQueue = "serve.jobs.rejected_queue"
	keyRejectedSpec  = "serve.jobs.rejected_spec"
)

// Server owns the job store, the admission layers, the journal, and the
// engine configuration. Build with Open, mount Handler on an http.Server,
// and call Drain on shutdown.
type Server struct {
	cfg    Config
	pool   *Pool
	quotas *Quotas
	reg    *obs.Registry
	jl     *journal // nil when running without a journal
	now    func() time.Time

	mu     sync.Mutex
	jobs   map[string]*jobState
	nextID int

	draining atomic.Bool
	running  atomic.Int64

	submitted     atomic.Int64
	rejectedQuota atomic.Int64
	rejectedQueue atomic.Int64
	rejectedSpec  atomic.Int64
	completed     atomic.Int64
	failed        atomic.Int64
	recoveredJobs atomic.Int64
	journalErrs   atomic.Int64
}

// Open builds a Server and starts its worker pool. With a JournalPath,
// existing records are replayed first (completed jobs rehydrate as done,
// incomplete ones re-enqueue in admission order, the service counters
// resume) and every subsequent admission/completion is journaled
// write-ahead; without one the server runs in memory and the Recovery is
// empty. Recovery refuses corrupt journals with a typed error
// (wal.ErrCorrupt or ErrJournal) rather than loading part of a history.
func Open(cfg Config) (*Server, *Recovery, error) {
	s := newServer(cfg.withDefaults())
	if s.cfg.JournalPath == "" {
		s.pool = NewPool(s.cfg.PoolWorkers, s.cfg.QueueDepth, s.runJob)
		return s, &Recovery{}, nil
	}
	rec, err := s.recover()
	if err != nil {
		return nil, nil, err
	}
	return s, rec, nil
}

// newServer builds everything but the worker pool (whose queue depth the
// recovery path may widen before starting it).
func newServer(cfg Config) *Server {
	s := &Server{
		cfg:    cfg,
		quotas: NewQuotas(cfg.QuotaRate, cfg.QuotaBurst),
		jobs:   map[string]*jobState{},
		//visa:allow(detlint): admission deadlines live in wall-clock service time, not simulated time
		now: time.Now,
	}
	s.reg = obs.NewRegistry()
	s.reg.Counter(keySubmitted, s.submitted.Load)
	s.reg.Counter(keyRejectedQuota, s.rejectedQuota.Load)
	s.reg.Counter(keyRejectedQueue, s.rejectedQueue.Load)
	s.reg.Counter(keyRejectedSpec, s.rejectedSpec.Load)
	s.reg.Counter(keyCompleted, s.completed.Load)
	s.reg.Counter(keyFailed, s.failed.Load)
	s.reg.Counter("serve.jobs.running", s.running.Load)
	s.reg.Counter("serve.jobs.recovered", s.recoveredJobs.Load)
	s.reg.Counter("serve.journal.errors", s.journalErrs.Load)
	s.reg.Counter("serve.queue.depth", func() int64 { return int64(s.pool.Depth()) })
	return s
}

// rejectionCounters lists the rejection counters in key order — the only
// counters the journal carries.
func (s *Server) rejectionCounters() []durableCounter {
	return []durableCounter{
		{key: keyRejectedQueue, live: &s.rejectedQueue},
		{key: keyRejectedQuota, live: &s.rejectedQuota},
		{key: keyRejectedSpec, live: &s.rejectedSpec},
	}
}

// reject bumps a rejection counter and journals it once enough
// increments are pending.
func (s *Server) reject(live *atomic.Int64) {
	live.Add(1)
	if err := s.jl.rejected(); err != nil {
		s.journalErrs.Add(1)
	}
}

// Submit validates, admits, and enqueues one plan spec for client,
// returning the job ID. Errors wrap rt.ErrInvalidSpec (malformed spec),
// ErrQuotaExceeded (client over quota), rt.ErrQueueFull (backlog full), or
// ErrDraining (shutting down).
func (s *Server) Submit(client string, spec rt.PlanSpec) (string, error) {
	if s.draining.Load() {
		return "", ErrDraining
	}
	plan, err := materialize(spec)
	if err != nil {
		s.reject(&s.rejectedSpec)
		return "", err
	}
	if ok, wait := s.quotas.Allow(client); !ok {
		s.reject(&s.rejectedQuota)
		return "", &QuotaError{Client: client, RetryAfter: wait}
	}

	// Write-ahead admission: the admit record hits the journal before the
	// job can run, and the enqueue happens under the same lock, so the
	// journal's admit order is exactly the queue's execution order — a
	// restarted daemon re-runs the backlog in the order clients were
	// promised.
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("j%06d", s.nextID)
	j := newJobState(id, client, spec, plan)
	j.admitted = s.now()
	if s.jl != nil {
		enc, err := spec.Encode()
		if err == nil {
			err = s.jl.append(JournalEntry{Type: entryAdmit, ID: id, Client: client, Spec: enc})
		}
		if err != nil {
			s.mu.Unlock()
			s.journalErrs.Add(1)
			return "", fmt.Errorf("serve: journal admission: %w", err)
		}
	}
	s.jobs[id] = j
	if err := s.pool.Enqueue(j); err != nil {
		delete(s.jobs, id)
		s.mu.Unlock()
		// The admit record is already durable; cancel it so recovery does
		// not resurrect a job the client was told to retry. A crash
		// between the two records errs toward re-running work nobody
		// observed — harmless — never toward losing work somebody did.
		if jerr := s.jl.append(JournalEntry{Type: entryReject, ID: id}); jerr != nil {
			s.journalErrs.Add(1)
		}
		if err == rt.ErrQueueFull {
			s.reject(&s.rejectedQueue)
		}
		return "", err
	}
	s.mu.Unlock()
	s.submitted.Add(1)
	return id, nil
}

// Job returns the job state for id (nil when unknown).
func (s *Server) job(id string) *jobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// materialize builds the executable plan, defaulting empty job labels —
// the engine attaches metrics to every service run, and metrics-attached
// configs require attributable labels.
func materialize(spec rt.PlanSpec) (*rt.Plan, error) {
	plan, err := spec.Plan()
	if err != nil {
		return nil, err
	}
	for i := range plan.Jobs {
		if plan.Jobs[i].Run == nil && plan.Jobs[i].Config.Label == "" {
			plan.Jobs[i].Config.Label = fmt.Sprintf("%s/job%d", plan.Name, i)
		}
	}
	return plan, nil
}

// runJob executes one admitted plan on a fresh engine, streaming per-job
// events through the engine's completion hook. Terminal states are
// journaled write-ahead: the done record is durable before any client
// can observe the done status, so an observed completion never regresses
// to a re-run after a crash.
func (s *Server) runJob(j *jobState) {
	s.running.Add(1)
	defer s.running.Add(-1)

	// Admission deadline: a job that sat in the queue past the bound is
	// failed without running — the client asked for a simulation, not a
	// simulation at an arbitrary future time. The error message carries
	// only the configured bound, never a measured wall-time, so reports
	// and event logs stay deterministic.
	if s.cfg.QueueTimeout > 0 && s.now().Sub(j.admitted) > s.cfg.QueueTimeout {
		s.finishFailed(j, fmt.Errorf("%w (admission deadline %s)", ErrJobTimeout, s.cfg.QueueTimeout))
		return
	}
	j.setStatus(StatusRunning)

	eng := &rt.Engine{
		Workers:     s.cfg.EngineWorkers,
		Sink:        &obs.Sink{Metrics: obs.NewRecordBuffer()},
		Coalesce:    true,
		CycleBudget: s.cfg.CycleBudget,
		OnJobDone: func(i int, _ rt.JobResult, recs []obs.Record, err error) {
			j.append(jobEvents(i, recs, err)...)
		},
	}
	rep, err := eng.Run(j.plan)
	if err != nil {
		// Hard failure (validation): no report at all.
		s.finishFailed(j, err)
		return
	}
	hash := rt.ReportHash(rep.Text)
	if err := s.jl.appendDone(JournalEntry{
		Type: entryDone, ID: j.id, Status: StatusDone,
		Report: rep.Text, ReportHash: hash, Failed: rep.Failed,
	}); err != nil {
		// The job ran; only its completion record is lost. Leaving the
		// journal without a done record errs toward a redundant re-run
		// after a crash — the safe direction.
		s.journalErrs.Add(1)
	}
	j.mu.Lock()
	j.report = rep.Text
	j.reportHash = hash
	j.failed = rep.Failed
	j.events = append(j.events,
		Event{Type: "report", Text: rep.Text, Failed: rep.Failed},
		Event{Type: "done", Status: StatusDone})
	j.status = StatusDone
	j.signal()
	j.mu.Unlock()
	s.completed.Add(1)
}

// finishFailed journals and applies a job's terminal failure.
func (s *Server) finishFailed(j *jobState, err error) {
	msg := err.Error()
	if jerr := s.jl.appendDone(JournalEntry{
		Type: entryDone, ID: j.id, Status: StatusFailed, Error: msg,
	}); jerr != nil {
		s.journalErrs.Add(1)
	}
	j.mu.Lock()
	j.errMsg = msg
	j.events = append(j.events, Event{Type: "done", Status: StatusFailed, Error: msg})
	j.status = StatusFailed
	j.signal()
	j.mu.Unlock()
	s.failed.Add(1)
}

// jobEvents renders one plan-job completion: its buffered metrics records
// (in record order) then the completion marker.
func jobEvents(i int, recs []obs.Record, err error) []Event {
	evs := make([]Event, 0, len(recs)+1)
	var buf bytes.Buffer
	mw := obs.NewMetricsWriter(&buf)
	for _, rec := range recs {
		buf.Reset()
		mw.Write(rec)
		if mw.Err() != nil {
			break
		}
		evs = append(evs, Event{Type: "metrics", Index: i,
			Record: json.RawMessage(bytes.TrimRight(bytes.Clone(buf.Bytes()), "\n"))})
	}
	done := Event{Type: "job", Index: i, OK: err == nil}
	if err != nil {
		done.Error = err.Error()
	}
	return append(evs, done)
}

// Drain stops admitting jobs, finishes every job already admitted (queued
// or running), closes the journal, and returns — or gives up when ctx
// expires, leaving the remaining jobs running (and the journal open for
// their completion records; the next Open replays whatever landed).
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.pool.Drain()
		if err := s.jl.close(); err != nil {
			s.journalErrs.Add(1)
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }
