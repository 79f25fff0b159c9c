package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"visa/internal/rt"
	"visa/internal/wal"
)

// This file is the durability layer of the service: a write-ahead journal
// of job admissions and completions (internal/wal underneath) plus the
// recovery path that rebuilds a Server's job store from it after a crash.
//
// The protocol is write-ahead on both edges of a job's life. An "admit"
// entry — carrying the canonical rt.PlanSpec encoding — is appended (and
// fsynced, per policy) before the job enters the execution queue, so an
// acknowledged submission survives any crash. A "done" entry — terminal
// status, report text, and its rt.ReportHash — is appended before the
// in-memory state flips to done, so any state a client has observed is
// durable. Recovery replays the journal in order: terminally-recorded
// jobs are rehydrated as done/failed (the report hash is re-verified),
// incomplete ones are re-materialized and re-enqueued in their original
// admission order. Re-running an incomplete job is safe because the
// engine is deterministic: the re-run's report is byte-identical to what
// the lost run would have produced, making recovery exactly-once-
// observable even though execution is at-least-once.
//
// The service counters need no journal entries of their own where the
// job records already determine them: recovery derives submitted,
// completed and failed exactly from the admit/done entries. Only the
// three rejection counters, which no job record reflects, ride the
// journal as "counter" entries. A rejection counter is journaled once it
// has rejectFlushEvery unjournaled increments, behind every done entry,
// and at close, so a crash loses fewer than rejectFlushEvery of its
// increments.

// Journal entry types.
const (
	entryAdmit   = "admit"   // job admitted: id, client, canonical plan spec
	entryDone    = "done"    // job reached a terminal state: status, report, hash
	entryReject  = "reject"  // admit cancelled (queue refused after the admit was journaled)
	entryCounter = "counter" // rejection counter: key, delta since its previous entry, total
)

// ErrJournal roots semantic journal failures: entries that decode but
// cannot be honored (unreadable spec, report hash mismatch, unknown entry
// type). Frame-level damage is wal.ErrCorrupt; both refuse recovery
// entirely rather than silently loading part of a history.
var ErrJournal = errors.New("serve: journal invalid")

// JournalEntry is the journal's record spec: one JSON object per wal
// record, canonical struct-driven field order, no wall-clock fields (the
// journal is a deterministic function of what the service was asked to
// do). Unknown fields are decode errors — the schema is versioned by the
// wal file magic.
type JournalEntry struct {
	Type   string          `json:"type"`
	ID     string          `json:"id,omitempty"`
	Client string          `json:"client,omitempty"`
	Spec   json.RawMessage `json:"spec,omitempty"`

	Status     Status `json:"status,omitempty"`
	ReportHash string `json:"report_hash,omitempty"`
	Report     string `json:"report,omitempty"`
	Failed     int    `json:"failed,omitempty"`
	Error      string `json:"error,omitempty"`

	Key   string `json:"key,omitempty"`
	Delta int64  `json:"delta,omitempty"`
	Total int64  `json:"total,omitempty"`
}

// EncodeJournalEntry renders the entry in its canonical JSON form.
func EncodeJournalEntry(e JournalEntry) ([]byte, error) { return json.Marshal(e) }

// DecodeJournalEntry parses a canonical entry encoding. Unknown fields
// are errors, wrapping ErrJournal.
func DecodeJournalEntry(data []byte) (JournalEntry, error) {
	var e JournalEntry
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		return JournalEntry{}, fmt.Errorf("%w: entry: %v", ErrJournal, err)
	}
	return e, nil
}

// rejectFlushEvery is the number of unjournaled increments that journals
// a rejection counter: small enough that a crash loses only a handful of
// rejections, large enough that a rejection storm does not turn the
// journal into a per-event log. Done entries journal every pending
// increment anyway, so this only bounds loss between completions.
const rejectFlushEvery = 8

// durableCounter ties a rejection counter's live value to the total its
// last counter entry carried.
type durableCounter struct {
	key       string
	live      *atomic.Int64
	journaled int64
}

// journal serializes all durable writes of one Server: job entries and
// rejection counter entries share a single append order.
type journal struct {
	mu       sync.Mutex
	w        *wal.Writer
	closed   bool
	counters []durableCounter // the rejection counters, in key order
}

// append journals one entry.
func (jl *journal) append(e JournalEntry) error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.appendLocked(e)
}

func (jl *journal) appendLocked(e JournalEntry) error {
	if jl.closed {
		return fmt.Errorf("%w: journal closed", ErrJournal)
	}
	data, err := EncodeJournalEntry(e)
	if err != nil {
		return fmt.Errorf("%w: encode: %v", ErrJournal, err)
	}
	return jl.w.Append(data)
}

// rejected journals the rejection counters that reached rejectFlushEvery
// unjournaled increments. Callers bump the live counter first.
func (jl *journal) rejected() error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.journalCountersLocked(rejectFlushEvery)
}

// appendDone journals a completion entry and every pending rejection
// increment behind it — the completion is a durable write anyway, so the
// counters' crash-loss window resets for free.
func (jl *journal) appendDone(e JournalEntry) error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if err := jl.appendLocked(e); err != nil {
		return err
	}
	return jl.journalCountersLocked(1)
}

// journalCountersLocked appends a counter entry for every rejection
// counter with at least atLeast unjournaled increments. Callers hold jl.mu.
func (jl *journal) journalCountersLocked(atLeast int64) error {
	var firstErr error
	for i := range jl.counters {
		c := &jl.counters[i]
		total := c.live.Load()
		if total-c.journaled < atLeast {
			continue
		}
		err := jl.appendLocked(JournalEntry{Type: entryCounter, Key: c.key, Delta: total - c.journaled, Total: total})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		c.journaled = total
	}
	return firstErr
}

// close journals every pending rejection increment and closes the wal
// file. Further appends fail; it is safe to call more than once.
func (jl *journal) close() error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.closed {
		return nil
	}
	err := jl.journalCountersLocked(1)
	jl.closed = true
	if cerr := jl.w.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Recovery summarizes what Open rebuilt from a journal.
type Recovery struct {
	// Done is the number of jobs rehydrated in a terminal state (report
	// verified against its journaled hash).
	Done int
	// Requeued is the number of incomplete jobs re-admitted for
	// execution, in their original admission order; RequeuedIDs lists
	// them.
	Requeued    int
	RequeuedIDs []string
	// Rejected counts admits cancelled by a reject marker (the client was
	// answered 429 — nothing to re-run).
	Rejected int
	// Counters is the number of service counters that resumed at a
	// nonzero value: job counters derived from the replay, rejection
	// counters from their last counter entries.
	Counters int
	// Torn reports that a torn tail (a record cut mid-write by the crash)
	// was truncated away — the expected crash shape, not an error.
	Torn bool
}

// String renders the one-line boot summary daemons log.
func (r *Recovery) String() string {
	tail := ""
	if r.Torn {
		tail = ", torn tail truncated"
	}
	return fmt.Sprintf("%d done, %d re-queued, %d rejected, %d counters restored%s",
		r.Done, r.Requeued, r.Rejected, r.Counters, tail)
}

// recover opens the configured journal, replays it, rehydrates the job
// store, re-enqueues incomplete jobs in admission order, and restores
// the service counters. Any record that cannot be honored fails recovery
// with a typed error (wal.ErrCorrupt or ErrJournal) — never a partial
// silent load.
func (s *Server) recover() (*Recovery, error) {
	w, raw, torn, err := wal.Open(s.cfg.JournalPath, s.cfg.JournalSync)
	if err != nil {
		return nil, err
	}
	var (
		rec        = &Recovery{Torn: torn}
		admitOrder []string
		admits     = map[string]JournalEntry{}
		terminal   = map[string]JournalEntry{} // last terminal entry wins (replay is idempotent)
		totals     = map[string]int64{}        // last counter entry's total per key
		maxID      int
	)
	for i, data := range raw {
		e, err := DecodeJournalEntry(data)
		if err != nil {
			w.Close() //visa:allow(errlint): the decode error is the one being reported
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		switch e.Type {
		case entryAdmit:
			if _, dup := admits[e.ID]; !dup {
				admitOrder = append(admitOrder, e.ID)
			}
			admits[e.ID] = e
			var n int
			if _, err := fmt.Sscanf(e.ID, "j%06d", &n); err == nil && n > maxID {
				maxID = n
			}
		case entryDone, entryReject:
			terminal[e.ID] = e
		case entryCounter:
			totals[e.Key] = e.Total
		default:
			w.Close() //visa:allow(errlint): the unknown-entry error is the one being reported
			return nil, fmt.Errorf("%w: record %d: unknown entry type %q", ErrJournal, i, e.Type)
		}
	}
	s.nextID = maxID

	// Rebuild job states in admission order.
	var requeue []*jobState
	for _, id := range admitOrder {
		adm := admits[id]
		term, isTerminal := terminal[id]
		if isTerminal && term.Type == entryReject {
			rec.Rejected++
			continue
		}
		spec, err := rt.DecodePlanSpec(adm.Spec)
		if err != nil {
			w.Close() //visa:allow(errlint): the spec error is the one being reported
			return nil, fmt.Errorf("%w: job %s: admitted spec unreadable: %v", ErrJournal, id, err)
		}
		if isTerminal {
			if term.Status == StatusDone && rt.ReportHash(term.Report) != term.ReportHash {
				w.Close() //visa:allow(errlint): the hash error is the one being reported
				return nil, fmt.Errorf("%w: job %s: journaled report does not match its hash %s",
					ErrJournal, id, term.ReportHash)
			}
			j := newJobState(id, adm.Client, spec, nil)
			j.recovered = true
			j.status = term.Status
			j.report = term.Report
			j.reportHash = term.ReportHash
			j.failed = term.Failed
			j.errMsg = term.Error
			if term.Status == StatusDone {
				j.events = []Event{
					{Type: "report", Text: term.Report, Failed: term.Failed},
					{Type: "done", Status: StatusDone},
				}
				s.completed.Add(1)
			} else {
				j.events = []Event{{Type: "done", Status: StatusFailed, Error: term.Error}}
				s.failed.Add(1)
			}
			s.jobs[id] = j
			rec.Done++
			continue
		}
		// Incomplete: re-materialize and re-run. The determinism contract
		// makes the re-run byte-identical to the lost one.
		plan, err := materialize(spec)
		if err != nil {
			w.Close() //visa:allow(errlint): the materialize error is the one being reported
			return nil, fmt.Errorf("%w: job %s: admitted spec no longer materializes: %v", ErrJournal, id, err)
		}
		j := newJobState(id, adm.Client, spec, plan)
		j.recovered = true
		j.status = StatusRecovered
		j.admitted = s.now()
		s.jobs[id] = j
		requeue = append(requeue, j)
	}

	// The job counters follow exactly from the job records (completed and
	// failed were counted above); counter entries for them, which older
	// journals wrote, are ignored. The rejection counters resume from
	// their last journaled totals.
	s.submitted.Store(int64(len(admitOrder) - rec.Rejected))
	counters := s.rejectionCounters()
	for i := range counters {
		c := &counters[i]
		c.journaled = totals[c.key]
		c.live.Store(c.journaled)
	}
	for _, c := range []*atomic.Int64{&s.submitted, &s.completed, &s.failed,
		&s.rejectedQueue, &s.rejectedQuota, &s.rejectedSpec} {
		if c.Load() != 0 {
			rec.Counters++
		}
	}
	s.jl = &journal{w: w, counters: counters}

	// The queue must hold every recovered job: widen it if the backlog at
	// crash time exceeded the configured depth.
	depth := s.cfg.QueueDepth
	if len(requeue) > depth {
		depth = len(requeue)
	}
	s.pool = NewPool(s.cfg.PoolWorkers, depth, s.runJob)
	for _, j := range requeue {
		if err := s.pool.Enqueue(j); err != nil {
			return nil, fmt.Errorf("serve: recovery enqueue %s: %w", j.id, err)
		}
	}
	rec.Requeued = len(requeue)
	for _, j := range requeue {
		rec.RequeuedIDs = append(rec.RequeuedIDs, j.id)
	}
	s.recoveredJobs.Store(int64(rec.Done + rec.Requeued))
	return rec, nil
}
