package rt

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"visa/internal/clab"
	"visa/internal/obs"
)

// crashPlan builds a three-job plan whose middle job panics after writing
// one metrics record; the outer jobs are real comparisons.
func crashPlan(instances int) *Plan {
	cnt := clab.ByName("cnt")
	ok := Job{Bench: cnt, Config: Config{Tight: true, Instances: instances, Label: "crash/ok"}}
	boom := Job{Run: func(sink *obs.Sink) (JobResult, error) {
		if mw := sink.M(); mw != nil {
			mw.Write(obs.Record{obs.F("kind", "pre-crash"), obs.F("label", "crash/boom")})
		}
		panic("injected test panic")
	}}
	return &Plan{
		Name: "crash",
		Jobs: []Job{ok, boom, ok},
		Render: func(r *Report) string {
			var b strings.Builder
			b.WriteString("CRASH PLAN\n")
			for i, res := range r.Results {
				state := "ok"
				if res.Savings == nil {
					state = "failed"
				}
				b.WriteString(r.Plan.Jobs[i].name() + ": " + state + "\n")
			}
			return b.String()
		},
	}
}

// runCrashPlan executes the crash plan and returns its text and metrics.
func runCrashPlan(t *testing.T, workers int) (*Report, string, string) {
	t.Helper()
	var buf bytes.Buffer
	sink := &obs.Sink{Metrics: obs.NewMetricsWriter(&buf, obs.FormatJSONL)}
	rep, err := (&Engine{Workers: workers, Sink: sink}).Run(crashPlan(6))
	if err != nil {
		t.Fatalf("j=%d: a panicking job must not fail the whole plan: %v", workers, err)
	}
	if err := sink.Metrics.Close(); err != nil {
		t.Fatal(err)
	}
	return rep, rep.Text, buf.String()
}

// TestEnginePanicRecovery is the crash-proofing acceptance check: a
// panicking job yields a per-job PanicError while the other jobs complete,
// and the degraded report is byte-identical for -j 1 and -j 8.
func TestEnginePanicRecovery(t *testing.T) {
	rep, text1, metrics1 := runCrashPlan(t, 1)
	_, text8, metrics8 := runCrashPlan(t, 8)

	if rep.Failed != 1 {
		t.Errorf("Failed = %d, want 1", rep.Failed)
	}
	var pe *PanicError
	if !errors.As(rep.Errors[1], &pe) {
		t.Fatalf("Errors[1] = %v, want PanicError", rep.Errors[1])
	}
	if pe.Value != "injected test panic" {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError.Stack empty: recovery lost the stack")
	}
	if strings.Contains(pe.Error(), "goroutine") {
		t.Error("PanicError.Error() leaks the stack (non-deterministic output)")
	}
	for _, i := range []int{0, 2} {
		if rep.Errors[i] != nil || rep.Results[i].Savings == nil {
			t.Errorf("job %d did not survive the neighbouring panic: %v", i, rep.Errors[i])
		}
	}
	err := rep.Err()
	if err == nil || !strings.Contains(err.Error(), "plan crash job 1 (custom)") {
		t.Errorf("Err() does not locate the failed job: %v", err)
	}
	if !strings.Contains(text1, "FAILED JOBS (1/3):") ||
		!strings.Contains(text1, "job 1 (custom): job panicked: injected test panic") {
		t.Errorf("report text missing the failure appendix:\n%s", text1)
	}
	if text1 != text8 {
		t.Errorf("degraded report text differs between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", text1, text8)
	}
	if metrics1 != metrics8 {
		t.Error("degraded metrics differ between -j 1 and -j 8")
	}
	if !strings.Contains(metrics1, "pre-crash") {
		t.Error("records written before the panic were dropped from the merge")
	}
}

// TestEngineCycleBudget: the engine-level default budget propagates into
// the jobs' configs, and a budget far below the task's real cycle count
// fails that job with ErrCycleBudget — without failing the plan.
func TestEngineCycleBudget(t *testing.T) {
	cnt := clab.ByName("cnt")
	plan := &Plan{Name: "budget", Jobs: []Job{
		{Bench: cnt, Config: Config{Tight: true, Instances: 4, Label: "budget/tiny"}},
	}}
	rep, err := (&Engine{Workers: 1, CycleBudget: 10}).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 || !errors.Is(rep.Errors[0], ErrCycleBudget) {
		t.Fatalf("10-cycle budget did not trip ErrCycleBudget: %v", rep.Errors[0])
	}

	// An explicit per-job budget wins over the engine default, and a
	// generous budget must not interfere.
	plan = &Plan{Name: "budget2", Jobs: []Job{
		{Bench: cnt, Config: Config{Tight: true, Instances: 4, CycleBudget: 1 << 40, Label: "budget/big"}},
	}}
	rep, err = (&Engine{Workers: 1, CycleBudget: 10}).Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("generous per-job budget overridden by engine default: %v", err)
	}
}
