package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"visa/internal/rt"
	"visa/internal/wal"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "serve.wal")
}

// runPlanInMemory runs the spec on a plain in-memory server and returns
// the report — the reference for recovery comparisons.
func runPlanInMemory(t *testing.T, spec rt.PlanSpec) string {
	t.Helper()
	s := openMem(t, Config{PoolWorkers: 1, EngineWorkers: 1})
	id, err := s.Submit("ref", spec)
	if err != nil {
		t.Fatal(err)
	}
	j := s.job(id)
	waitDone(t, j)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusDone {
		t.Fatalf("reference run failed: %s", j.errMsg)
	}
	return j.report
}

// writeJournal builds a journal file from raw entries — the crash-state
// constructor for recovery tests.
func writeJournal(t *testing.T, path string, entries ...JournalEntry) {
	t.Helper()
	w, _, _, err := wal.Open(path, wal.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := EncodeJournalEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func mustEncode(t *testing.T, spec rt.PlanSpec) []byte {
	t.Helper()
	enc, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestRecoveryRequeuesIncomplete is the core crash shape: an admit record
// with no completion. Recovery re-materializes the spec, re-runs it, and
// the re-run's report is byte-identical to an uninterrupted run — the
// exactly-once-observable argument in miniature.
func TestRecoveryRequeuesIncomplete(t *testing.T) {
	path := journalPath(t)
	spec := tinyPlan()
	writeJournal(t, path,
		JournalEntry{Type: entryAdmit, ID: "j000007", Client: "alice", Spec: mustEncode(t, spec)})

	s, rec, err := Open(Config{PoolWorkers: 1, EngineWorkers: 1, JournalPath: path, JournalSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Requeued != 1 || rec.Done != 0 || len(rec.RequeuedIDs) != 1 || rec.RequeuedIDs[0] != "j000007" {
		t.Fatalf("recovery = %+v", rec)
	}
	j := s.job("j000007")
	if j == nil {
		t.Fatal("recovered job not in store")
	}
	waitDone(t, j)
	j.mu.Lock()
	report, status, recovered := j.report, j.status, j.recovered
	j.mu.Unlock()
	if status != StatusDone || !recovered {
		t.Fatalf("recovered job: status=%s recovered=%v", status, recovered)
	}
	if want := runPlanInMemory(t, spec); report != want {
		t.Errorf("re-run report differs from uninterrupted run:\n--- rerun\n%s\n--- ref\n%s", report, want)
	}
	// IDs continue after the journaled ones.
	id2, err := s.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != "j000008" {
		t.Errorf("post-recovery id = %s, want j000008", id2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	// A second recovery on the same journal sees both completions.
	s2, rec2, err := Open(Config{JournalPath: path, JournalSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Done != 2 || rec2.Requeued != 0 {
		t.Fatalf("second recovery = %+v, want 2 done", rec2)
	}
	if got := s2.job("j000007"); got == nil || got.status != StatusDone || got.report != report {
		t.Error("rehydrated job lost its report")
	}
}

// TestRecoveryRehydratesDone: a completed, journaled job comes back done
// — same report, verified hash, terminal event stream — without re-running.
func TestRecoveryRehydratesDone(t *testing.T) {
	path := journalPath(t)
	spec := tinyPlan()

	s1, _, err := Open(Config{PoolWorkers: 1, EngineWorkers: 1, JournalPath: path, JournalSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s1.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	j1 := s1.job(id)
	waitDone(t, j1)
	j1.mu.Lock()
	report, hash := j1.report, j1.reportHash
	j1.mu.Unlock()
	if hash != rt.ReportHash(report) {
		t.Fatalf("live job hash mismatch")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	s2, rec, err := Open(Config{JournalPath: path, JournalSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Done != 1 || rec.Requeued != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	j2 := s2.job(id)
	if j2 == nil {
		t.Fatal("done job not rehydrated")
	}
	j2.mu.Lock()
	defer j2.mu.Unlock()
	if j2.status != StatusDone || j2.report != report || j2.reportHash != hash || !j2.recovered {
		t.Fatalf("rehydrated: status=%s recovered=%v reportMatch=%v",
			j2.status, j2.recovered, j2.report == report)
	}
	if len(j2.events) != 2 || j2.events[0].Type != "report" || j2.events[1].Type != "done" {
		t.Errorf("synthesized events = %+v", j2.events)
	}
}

// TestRecoverySkipsRejected: an admit cancelled by a reject marker (queue
// refused after the write-ahead admit) is not resurrected.
func TestRecoverySkipsRejected(t *testing.T) {
	path := journalPath(t)
	writeJournal(t, path,
		JournalEntry{Type: entryAdmit, ID: "j000001", Client: "c", Spec: mustEncode(t, tinyPlan())},
		JournalEntry{Type: entryReject, ID: "j000001"})
	s, rec, err := Open(Config{JournalPath: path, JournalSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Rejected != 1 || rec.Requeued != 0 || rec.Done != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	if s.job("j000001") != nil {
		t.Error("rejected job resurrected")
	}
	if got := s.submitted.Load(); got != 0 {
		t.Errorf("submitted = %d, want 0 (a cancelled admit was never submitted)", got)
	}
}

// TestRecoveryRejectsBadReportHash: a done record whose report does not
// match its journaled hash is corruption — recovery must refuse with a
// typed error, never silently serve a wrong report.
func TestRecoveryRejectsBadReportHash(t *testing.T) {
	path := journalPath(t)
	writeJournal(t, path,
		JournalEntry{Type: entryAdmit, ID: "j000001", Client: "c", Spec: mustEncode(t, tinyPlan())},
		JournalEntry{Type: entryDone, ID: "j000001", Status: StatusDone,
			Report: "tampered report", ReportHash: rt.ReportHash("the real report")})
	_, _, err := Open(Config{JournalPath: path, JournalSync: wal.SyncNever})
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("err = %v, want ErrJournal", err)
	}
}

// TestRecoveryRejectsCorruptFrame: a checksum-corrupt journal refuses
// recovery entirely with wal's typed error.
func TestRecoveryRejectsCorruptFrame(t *testing.T) {
	path := journalPath(t)
	writeJournal(t, path,
		JournalEntry{Type: entryAdmit, ID: "j000001", Client: "c", Spec: mustEncode(t, tinyPlan())})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01 // flip a payload bit inside the complete record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Config{JournalPath: path, JournalSync: wal.SyncNever}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("err = %v, want wal.ErrCorrupt", err)
	}
}

// TestRecoveryTornTail: a crash mid-append tears the final record; the
// valid prefix recovers and the incomplete job re-runs.
func TestRecoveryTornTail(t *testing.T) {
	path := journalPath(t)
	writeJournal(t, path,
		JournalEntry{Type: entryAdmit, ID: "j000001", Client: "c", Spec: mustEncode(t, tinyPlan())},
		JournalEntry{Type: entryDone, ID: "j000001", Status: StatusDone,
			Report: "r", ReportHash: rt.ReportHash("r")})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the done record: cut 3 bytes into its frame from the end.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	s, rec, err := Open(Config{PoolWorkers: 1, EngineWorkers: 1, JournalPath: path, JournalSync: wal.SyncNever})
	if err != nil {
		t.Fatalf("torn tail refused: %v", err)
	}
	if !rec.Torn || rec.Requeued != 1 {
		t.Fatalf("recovery = %+v, want torn + 1 requeued", rec)
	}
	j := s.job("j000001")
	waitDone(t, j)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusDone {
		t.Errorf("torn-tail job did not re-run to done: %s (%s)", j.status, j.errMsg)
	}
}

// TestRecoveryQueueWiderThanConfig: more incomplete jobs than QueueDepth
// must all re-enqueue — recovery widens the queue instead of dropping
// admitted work.
func TestRecoveryQueueWiderThanConfig(t *testing.T) {
	path := journalPath(t)
	var entries []JournalEntry
	for i := 1; i <= 5; i++ {
		entries = append(entries, JournalEntry{
			Type: entryAdmit, ID: fmt.Sprintf("j%06d", i), Client: "c",
			Spec: mustEncode(t, tinyPlan()),
		})
	}
	writeJournal(t, path, entries...)
	s, rec, err := Open(Config{PoolWorkers: 1, EngineWorkers: 1, QueueDepth: 1,
		JournalPath: path, JournalSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Requeued != 5 {
		t.Fatalf("requeued %d, want 5", rec.Requeued)
	}
	for i := 1; i <= 5; i++ {
		j := s.job(fmt.Sprintf("j%06d", i))
		waitDone(t, j)
		j.mu.Lock()
		if j.status != StatusDone {
			t.Errorf("job %d: %s (%s)", i, j.status, j.errMsg)
		}
		j.mu.Unlock()
	}
}

// TestCountersSurviveRestart: the service counters resume after recovery
// — exact for the job counters (derived from the replay) and for the
// rejection counters after a Drain (whose close journals every pending
// increment).
func TestCountersSurviveRestart(t *testing.T) {
	path := journalPath(t)
	s1, _, err := Open(Config{PoolWorkers: 1, EngineWorkers: 1, JournalPath: path, JournalSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s1.Submit("alice", tinyPlan())
	if err != nil {
		t.Fatal(err)
	}
	// Invalid specs bump the rejected_spec counter (no per-event journal
	// record: fewer than 8 pending increments wait for a later entry).
	for i := 0; i < 3; i++ {
		if _, err := s1.Submit("alice", rt.PlanSpec{Version: 99}); !errors.Is(err, rt.ErrInvalidSpec) {
			t.Fatalf("bad spec err = %v", err)
		}
	}
	waitDone(t, s1.job(id))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil { // close journals every pending increment
		t.Fatal(err)
	}

	s2, rec, err := Open(Config{JournalPath: path, JournalSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Counters != 3 {
		t.Fatalf("recovery restored %d counters, want 3: %+v", rec.Counters, rec)
	}
	if got := s2.submitted.Load(); got != 1 {
		t.Errorf("submitted = %d, want 1", got)
	}
	if got := s2.completed.Load(); got != 1 {
		t.Errorf("completed = %d, want 1", got)
	}
	if got := s2.rejectedSpec.Load(); got != 3 {
		t.Errorf("rejected_spec = %d, want 3", got)
	}
	// Counting resumes from the recovered total: one more rejection after
	// the restart journals 4, not 1.
	if _, err := s2.Submit("alice", rt.PlanSpec{Version: 99}); !errors.Is(err, rt.ErrInvalidSpec) {
		t.Fatalf("bad spec err = %v", err)
	}
	if err := s2.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	s3, _, err := Open(Config{JournalPath: path, JournalSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if got := s3.rejectedSpec.Load(); got != 4 {
		t.Errorf("rejected_spec after a second restart = %d, want 4", got)
	}
}

// journalEntries decodes every entry of the journal at path.
func journalEntries(t *testing.T, path string) []JournalEntry {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	raw, _, _, err := wal.Replay(f)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]JournalEntry, len(raw))
	for i, data := range raw {
		if out[i], err = DecodeJournalEntry(data); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestJournalFramesPerJob: a completed job costs exactly its admit and
// done frames — the job counters are derived on recovery, so no counter
// entry rides along when nothing was rejected.
func TestJournalFramesPerJob(t *testing.T) {
	const n = 4
	path := journalPath(t)
	s, _, err := Open(Config{PoolWorkers: 1, EngineWorkers: 1, JournalPath: path, JournalSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		id, err := s.Submit("alice", tinyPlan())
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s.job(id))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, e := range journalEntries(t, path) {
		types = append(types, e.Type)
	}
	if len(types) != 2*n {
		t.Fatalf("%d completed jobs left %d frames, want %d: %v", n, len(types), 2*n, types)
	}
	for i, typ := range types {
		if want := []string{entryAdmit, entryDone}[i%2]; typ != want {
			t.Errorf("frame %d type = %s, want %s", i, typ, want)
		}
	}
}

// TestRejectionCounterCrashBound: a rejection counter is journaled every
// rejectFlushEvery increments, so a crash (a reopen without Drain) loses
// fewer than that many: 10 quota rejections recover as 8.
func TestRejectionCounterCrashBound(t *testing.T) {
	path := journalPath(t)
	s, _, err := Open(Config{QuotaRate: 0.001, QuotaBurst: 1, PoolWorkers: 1,
		JournalPath: path, JournalSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	s.quotas.Allow("alice") // spend the burst token without running a job
	for i := 0; i < 10; i++ {
		if _, err := s.Submit("alice", tinyPlan()); !errors.Is(err, ErrQuotaExceeded) {
			t.Fatalf("submission %d: err = %v, want ErrQuotaExceeded", i, err)
		}
	}
	if got := s.rejectedQuota.Load(); got != 10 {
		t.Fatalf("live rejected_quota = %d, want 10", got)
	}
	// No Drain: the 2 increments past the last counter entry are lost.
	s2, _, err := Open(Config{JournalPath: path, JournalSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.rejectedQuota.Load(); got != 8 {
		t.Errorf("recovered rejected_quota = %d, want 8", got)
	}
}

// TestRecoveryReadsOlderCounterEntries: journals written before the job
// counters stopped being journaled also carry counter entries for them.
// Such a journal still decodes and recovers the same counts: job counters
// from the job records, rejection counters from their last entries.
func TestRecoveryReadsOlderCounterEntries(t *testing.T) {
	path := journalPath(t)
	spec := mustEncode(t, tinyPlan())
	writeJournal(t, path,
		JournalEntry{Type: entryAdmit, ID: "j000001", Client: "c", Spec: spec},
		JournalEntry{Type: entryDone, ID: "j000001", Status: StatusDone,
			Report: "r", ReportHash: rt.ReportHash("r")},
		JournalEntry{Type: entryCounter, Key: keyCompleted, Delta: 1, Total: 1},
		JournalEntry{Type: entryCounter, Key: keySubmitted, Delta: 1, Total: 1},
		JournalEntry{Type: entryCounter, Key: keyRejectedQuota, Delta: 8, Total: 8},
		JournalEntry{Type: entryAdmit, ID: "j000002", Client: "c", Spec: spec},
		JournalEntry{Type: entryDone, ID: "j000002", Status: StatusFailed, Error: "boom"},
		JournalEntry{Type: entryCounter, Key: keyFailed, Delta: 1, Total: 1},
		JournalEntry{Type: entryCounter, Key: keyRejectedSpec, Delta: 3, Total: 3},
		JournalEntry{Type: entryCounter, Key: keySubmitted, Delta: 1, Total: 2},
		JournalEntry{Type: entryCounter, Key: keyRejectedQuota, Delta: 2, Total: 10})
	s, rec, err := Open(Config{JournalPath: path, JournalSync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Done != 2 || rec.Counters != 5 {
		t.Fatalf("recovery = %+v, want 2 done and 5 counters", rec)
	}
	got := map[string]int64{}
	for _, smp := range s.reg.Snapshot() {
		got[smp.Name] = smp.Value
	}
	for key, want := range map[string]int64{
		keySubmitted: 2, keyCompleted: 1, keyFailed: 1,
		keyRejectedQuota: 10, keyRejectedSpec: 3, keyRejectedQueue: 0,
	} {
		if got[key] != want {
			t.Errorf("%s = %d, want %d", key, got[key], want)
		}
	}
}

// TestJournalEntryRoundTrip pins decode(encode(x)) == x at the entry
// level (the frame level is fuzz-pinned in internal/wal).
func TestJournalEntryRoundTrip(t *testing.T) {
	in := JournalEntry{Type: entryDone, ID: "j000042", Status: StatusDone,
		Report: "REPORT\ntext\n", ReportHash: rt.ReportHash("REPORT\ntext\n"), Failed: 2}
	data, err := EncodeJournalEntry(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeJournalEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.ID != in.ID || out.Status != in.Status ||
		out.Report != in.Report || out.ReportHash != in.ReportHash || out.Failed != in.Failed {
		t.Errorf("round trip: %+v != %+v", out, in)
	}
	if _, err := DecodeJournalEntry([]byte(`{"type":"admit","surprise":1}`)); !errors.Is(err, ErrJournal) {
		t.Errorf("unknown field accepted: %v", err)
	}
}

// TestQueueTimeout: a job that waited past the admission deadline fails
// with ErrJobTimeout (mapped to 504), and its error message carries only
// the configured bound — no measured wall-time leaks into job state.
func TestQueueTimeout(t *testing.T) {
	s := openMem(t, Config{PoolWorkers: 1, EngineWorkers: 1, QueueTimeout: time.Minute})
	base := time.Unix(5000, 0)
	spec := tinyPlan()
	plan, err := materialize(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Expired in queue: fails without running.
	s.now = func() time.Time { return base.Add(2 * time.Minute) }
	j := newJobState("j000001", "alice", spec, plan)
	j.admitted = base
	s.runJob(j)
	j.mu.Lock()
	if j.status != StatusFailed {
		t.Fatalf("expired job status = %s, want failed", j.status)
	}
	const wantMsg = "serve: job timed out awaiting execution (admission deadline 1m0s)"
	if j.errMsg != wantMsg {
		t.Errorf("errMsg = %q, want %q (deterministic, no measured wall-time)", j.errMsg, wantMsg)
	}
	j.mu.Unlock()
	if got := s.failed.Load(); got != 1 {
		t.Errorf("failed counter = %d, want 1", got)
	}

	// Within the deadline: runs to done.
	s.now = func() time.Time { return base.Add(30 * time.Second) }
	j2 := newJobState("j000002", "alice", spec, plan)
	j2.admitted = base
	s.runJob(j2)
	j2.mu.Lock()
	if j2.status != StatusDone {
		t.Errorf("in-deadline job status = %s (%s)", j2.status, j2.errMsg)
	}
	j2.mu.Unlock()

	// The sentinel maps to 504 via errors.Is, like the rest of the taxonomy.
	if code, _ := httpStatus(fmt.Errorf("wrapped: %w", ErrJobTimeout)); code != 504 {
		t.Errorf("httpStatus(ErrJobTimeout) = %d, want 504", code)
	}
}

// TestPoolDrainIdempotent: Drain any number of times — sequentially,
// concurrently, racing live Enqueues — without panic or deadlock, and
// every admitted job still runs exactly once.
func TestPoolDrainIdempotent(t *testing.T) {
	ran := make(chan *jobState, 64)
	p := NewPool(2, 8, func(j *jobState) { ran <- j })
	admitted := 0
	for i := 0; i < 4; i++ {
		if err := p.Enqueue(&jobState{}); err != nil {
			t.Fatal(err)
		}
		admitted++
	}

	done := make(chan struct{}, 8)
	for i := 0; i < 4; i++ { // concurrent drains
		go func() { p.Drain(); done <- struct{}{} }()
	}
	for i := 0; i < 4; i++ { // concurrent enqueues racing the drains
		go func() {
			err := p.Enqueue(&jobState{})
			if err != nil && !errors.Is(err, ErrDraining) && !errors.Is(err, rt.ErrQueueFull) {
				t.Errorf("racing enqueue: %v", err)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("drain or enqueue deadlocked")
		}
	}
	// Two more sequential drains after completion: strict no-ops.
	p.Drain()
	p.Drain()
	if err := p.Enqueue(&jobState{}); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain enqueue err = %v, want ErrDraining", err)
	}
	if got := len(ran); got < admitted {
		t.Errorf("only %d of %d admitted jobs ran", got, admitted)
	}
}
