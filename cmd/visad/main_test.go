package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"visa/internal/serve"
)

// buildVisad compiles the daemon once per test into a temp dir. Tests skip
// when the go toolchain is unavailable.
func buildVisad(t *testing.T) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	bin := filepath.Join(t.TempDir(), "visad")
	cmd := exec.Command(goBin, "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// daemon is one running visad child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr *prefixScanner
}

// prefixScanner tees the child's stderr, exposing the first "listening on"
// line and retaining everything for failure dumps. done closes when the
// child's stderr reaches EOF; String is complete after that.
type prefixScanner struct {
	addr chan string
	done chan struct{}
	mu   sync.Mutex
	buf  bytes.Buffer
}

// String returns the stderr lines read so far.
func (p *prefixScanner) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.buf.String()
}

func (p *prefixScanner) run(r io.Reader) {
	defer close(p.done)
	sc := bufio.NewScanner(r)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		p.mu.Lock()
		p.buf.WriteString(line + "\n")
		p.mu.Unlock()
		if !sent {
			if i := strings.Index(line, "listening on "); i >= 0 {
				addr := strings.Fields(line[i+len("listening on "):])[0]
				p.addr <- addr
				sent = true
			}
		}
	}
	if !sent {
		close(p.addr)
	}
}

// startVisad launches the daemon on an ephemeral port and waits for it to
// answer /v1/healthz.
func startVisad(t *testing.T, bin string, extra ...string) *daemon {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	ps := &prefixScanner{addr: make(chan string, 1), done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go ps.run(stderr)
	d := &daemon{cmd: cmd, stderr: ps}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	select {
	case addr, ok := <-ps.addr:
		if !ok {
			t.Fatalf("visad exited before listening:\n%s", ps.String())
		}
		d.base = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("visad did not report a listen address")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(d.base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			return d
		}
		if time.Now().After(deadline) {
			t.Fatalf("visad not healthy: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func planJSON(jobs int) string {
	var specs []string
	for i := 0; i < jobs; i++ {
		specs = append(specs, fmt.Sprintf(
			`{"version":1,"bench":"cnt","config":{"instances":3,"label":"e2e/cnt%d"}}`, i))
	}
	return fmt.Sprintf(`{"version":1,"kind":"custom","name":"e2e","jobs":[%s]}`,
		strings.Join(specs, ","))
}

func submitPlan(t *testing.T, base, client, body string) serve.SubmitResponse {
	t.Helper()
	req, _ := http.NewRequest("POST", base+"/v1/jobs", strings.NewReader(body))
	req.Header.Set("X-Client-ID", client)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, msg)
	}
	var sr serve.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

func waitReport(t *testing.T, base, id string) string {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var jr serve.JobResponse
		err = json.NewDecoder(resp.Body).Decode(&jr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch jr.Status {
		case serve.StatusDone:
			return jr.Report
		case serve.StatusFailed:
			t.Fatalf("job failed: %s", jr.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("job did not finish")
	return ""
}

// streamReplay reads a job's NDJSON stream to completion and returns the
// plan-order replay (per-job events stably sorted by index, then the tail).
func streamReplay(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var per, tail []serve.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON: %v", err)
		}
		if ev.Type == "metrics" || ev.Type == "job" {
			per = append(per, ev)
		} else {
			tail = append(tail, ev)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(tail) == 0 || tail[len(tail)-1].Type != "done" {
		t.Fatalf("stream did not end with done (%d tail events)", len(tail))
	}
	sort.SliceStable(per, func(i, j int) bool { return per[i].Index < per[j].Index })
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	for _, ev := range append(per, tail...) {
		enc.Encode(ev)
	}
	return out.Bytes()
}

// TestTwoDaemonsDifferentParallelismIdentical is the cross-instance
// determinism e2e: two daemons with -j 1 and -j 4 serve the same plan; the
// reports and the plan-order stream replays are byte-identical.
func TestTwoDaemonsDifferentParallelismIdentical(t *testing.T) {
	bin := buildVisad(t)
	body := planJSON(4)

	type out struct {
		report string
		replay []byte
	}
	run := func(j string) out {
		d := startVisad(t, bin, "-j", j)
		sr := submitPlan(t, d.base, "e2e", body)
		replay := streamReplay(t, d.base, sr.ID)
		return out{report: waitReport(t, d.base, sr.ID), replay: replay}
	}
	serial := run("1")
	parallel := run("4")
	if serial.report != parallel.report {
		t.Errorf("reports differ between -j 1 and -j 4:\n--- j1\n%s\n--- j4\n%s",
			serial.report, parallel.report)
	}
	if !bytes.Equal(serial.replay, parallel.replay) {
		t.Errorf("plan-order stream replays differ between -j 1 and -j 4")
	}
	if serial.report == "" || len(serial.replay) == 0 {
		t.Error("empty outputs")
	}
}

// TestSIGTERMDrains: on SIGTERM the daemon finishes the in-flight job
// (observed through its event stream), answers new submissions with 503,
// and exits 0.
func TestSIGTERMDrains(t *testing.T) {
	bin := buildVisad(t)
	d := startVisad(t, bin, "-j", "2")

	sr := submitPlan(t, d.base, "drain", planJSON(2))
	// Hold the stream open across the drain: it must still deliver the
	// full event log, proving the job ran to completion.
	attached := make(chan error, 1)
	streamDone := make(chan []byte, 1)
	go func() {
		resp, err := http.Get(d.base + "/v1/jobs/" + sr.ID + "/stream")
		attached <- err // the response headers have arrived
		if err != nil {
			streamDone <- nil
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		streamDone <- b
	}()
	select {
	case err := <-attached:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("stream did not attach")
	}
	waitRunning(t, d.base, sr.ID)

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Signal delivery is asynchronous: wait until the daemon reports that
	// it is draining (or has already closed its listener) before the late
	// submission, so the 503 below tests drain admission, not a race.
	waitDraining(t, d.base)
	// While draining, new submissions are refused with 503 (the listener
	// may also already be gone — both prove no new work is admitted).
	req, _ := http.NewRequest("POST", d.base+"/v1/jobs", strings.NewReader(planJSON(1)))
	req.Header.Set("X-Client-ID", "late")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("submit during drain: status %d, want 503", resp.StatusCode)
		}
		resp.Body.Close()
	}

	select {
	case b := <-streamDone:
		if !bytes.Contains(b, []byte(`"type":"done"`)) || !bytes.Contains(b, []byte(`"type":"report"`)) {
			t.Errorf("drained stream incomplete:\n%s", b)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("stream did not complete during drain")
	}

	// Read stderr to EOF before Wait: Wait closes the pipe, and a line
	// still unread then ("drained, exiting") would be lost.
	select {
	case <-d.stderr.done:
	case <-time.After(60 * time.Second):
		t.Fatal("visad did not exit after drain")
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- d.cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Errorf("visad exit: %v\nstderr:\n%s", err, d.stderr.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatal("visad did not exit after drain")
	}
	if !strings.Contains(d.stderr.String(), "drained") {
		t.Errorf("stderr missing drain confirmation:\n%s", d.stderr.String())
	}
}

// waitRunning polls a job until it reports running. A job that reaches a
// terminal state first fails the test: the caller needs it in flight.
func waitRunning(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var jr serve.JobResponse
		err = json.NewDecoder(resp.Body).Decode(&jr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch jr.Status {
		case serve.StatusRunning:
			return
		case serve.StatusDone, serve.StatusFailed:
			t.Fatalf("job %s reached %s before it was observed running", id, jr.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not start running")
}

// waitDraining polls /v1/healthz until the daemon reports draining or stops
// answering (the listener closes once the drain completes).
func waitDraining(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/healthz")
		if err != nil {
			return
		}
		var h serve.HealthResponse
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if h.Draining {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("daemon did not report draining after SIGTERM")
}

// waitJob polls a job to a terminal state and returns the full response.
func waitJob(t *testing.T, base, id string) serve.JobResponse {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var jr serve.JobResponse
		err = json.NewDecoder(resp.Body).Decode(&jr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if jr.Status == serve.StatusDone || jr.Status == serve.StatusFailed {
			return jr
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("job did not reach a terminal state")
	return serve.JobResponse{}
}

// TestCrashRecoveryByteIdentical is the crash-safety e2e: SIGKILL the
// daemon right after a journaled submission, restart on the same journal
// at a different -j, and the recovered job's report is byte-identical to
// an uninterrupted run — a crash is observationally a slow response.
func TestCrashRecoveryByteIdentical(t *testing.T) {
	bin := buildVisad(t)
	body := planJSON(4)

	// Reference: uninterrupted run, no journal, -j 1.
	ref := startVisad(t, bin, "-j", "1")
	refResp := waitJob(t, ref.base, submitPlan(t, ref.base, "crash", body).ID)
	if refResp.Status != serve.StatusDone {
		t.Fatalf("reference run failed: %s", refResp.Error)
	}

	journal := filepath.Join(t.TempDir(), "visad.wal")
	d1 := startVisad(t, bin, "-j", "1", "-journal", journal)
	sr := submitPlan(t, d1.base, "crash", body)
	// SIGKILL immediately: the admit record is durable (the 202 implies a
	// synced append), the completion almost certainly is not.
	d1.cmd.Process.Kill()
	d1.cmd.Wait()

	// Restart on the same journal at a different parallelism.
	d2 := startVisad(t, bin, "-j", "4", "-journal", journal)
	if !strings.Contains(d2.stderr.String(), "journal "+journal) {
		t.Errorf("restart stderr missing recovery summary:\n%s", d2.stderr.String())
	}
	jr := waitJob(t, d2.base, sr.ID)
	if jr.Status != serve.StatusDone {
		t.Fatalf("recovered job failed: %s", jr.Error)
	}
	if !jr.Recovered {
		t.Error("recovered job not flagged recovered")
	}
	if jr.Report != refResp.Report {
		t.Errorf("recovered report differs from uninterrupted run:\n--- recovered\n%s\n--- reference\n%s",
			jr.Report, refResp.Report)
	}
	if jr.ReportHash == "" || jr.ReportHash != refResp.ReportHash {
		t.Errorf("report hash mismatch: %q vs %q", jr.ReportHash, refResp.ReportHash)
	}

	// Third start: the completion is journaled now, so the job rehydrates
	// done without re-running, report intact.
	d2.cmd.Process.Kill()
	d2.cmd.Wait()
	d3 := startVisad(t, bin, "-j", "2", "-journal", journal)
	jr3 := waitJob(t, d3.base, sr.ID)
	if jr3.Status != serve.StatusDone || jr3.Report != refResp.Report || !jr3.Recovered {
		t.Errorf("rehydrated job wrong: status=%s recovered=%v reportMatch=%v",
			jr3.Status, jr3.Recovered, jr3.Report == refResp.Report)
	}
}

// TestVisaloadAgainstDaemon drives the load generator at a live daemon —
// the N-concurrent-clients byte-identical acceptance check, binary to
// binary.
func TestVisaloadAgainstDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips the load sweep")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	bin := buildVisad(t)
	loadBin := filepath.Join(t.TempDir(), "visaload")
	if out, err := exec.Command(goBin, "build", "-o", loadBin, "../visaload").CombinedOutput(); err != nil {
		t.Fatalf("go build visaload: %v\n%s", err, out)
	}
	d := startVisad(t, bin, "-j", "2", "-workers", "4", "-queue", "64")
	cmd := exec.Command(loadBin, "-addr", d.base, "-clients", "50", "-stream", "-timeout", "4m")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("visaload: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("byte-identical")) {
		t.Errorf("visaload output missing confirmation:\n%s", out)
	}
}
