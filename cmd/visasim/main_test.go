package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildVisasim compiles the command into a temp dir and returns its path.
// Tests needing the go toolchain skip when it is unavailable in the
// environment.
func buildVisasim(t *testing.T) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	bin := filepath.Join(t.TempDir(), "visasim")
	cmd := exec.Command(goBin, "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runIn runs bin with args in dir and returns its stdout; stderr is
// reported on failure.
func runIn(t *testing.T, dir, bin string, args ...string) ([]byte, error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if err != nil {
		err = errors.Join(err, errors.New(stderr.String()))
	}
	return stdout.Bytes(), err
}

// TestWorkersByteIdentical: several benchmarks run as parallel jobs, yet
// stdout and the metrics stream match the serial run byte for byte.
func TestWorkersByteIdentical(t *testing.T) {
	bin := buildVisasim(t)
	outs := map[string][]byte{}
	metrics := map[string][]byte{}
	for _, j := range []string{"1", "4"} {
		dir := t.TempDir()
		out, err := runIn(t, dir, bin, "-bench", "cnt,mm", "-runs", "2", "-j", j, "-metrics", "m.jsonl")
		if err != nil {
			t.Fatalf("-j %s: %v", j, err)
		}
		m, err := os.ReadFile(filepath.Join(dir, "m.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		outs[j], metrics[j] = out, m
	}
	if !bytes.Equal(outs["1"], outs["4"]) {
		t.Errorf("stdout differs between -j 1 and -j 4:\n%s\n---\n%s", outs["1"], outs["4"])
	}
	if !bytes.Equal(metrics["1"], metrics["4"]) {
		t.Error("metrics differ between -j 1 and -j 4")
	}
	for _, want := range []string{"== cnt ==", "== mm ==", "metrics: "} {
		if !bytes.Contains(outs["1"], []byte(want)) {
			t.Errorf("stdout lacks %q:\n%s", want, outs["1"])
		}
	}
	if len(metrics["1"]) == 0 {
		t.Error("empty metrics stream")
	}
}

// TestTraceHasSubTasks: -trace writes Chrome trace JSON whose slices
// include the per-sub-task lane.
func TestTraceHasSubTasks(t *testing.T) {
	bin := buildVisasim(t)
	dir := t.TempDir()
	if _, err := runIn(t, dir, bin, "-bench", "cnt", "-trace", "t.json"); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "t.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	subs := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && strings.HasPrefix(e.Name, "sub-task ") {
			subs++
		}
	}
	if subs == 0 {
		t.Errorf("trace has no sub-task slices (%d events)", len(doc.TraceEvents))
	}
}

// TestTraceRejectsSeveralBenchmarks: the trace is one shared timeline, so
// -trace with two benchmarks is an error.
func TestTraceRejectsSeveralBenchmarks(t *testing.T) {
	bin := buildVisasim(t)
	dir := t.TempDir()
	_, err := runIn(t, dir, bin, "-bench", "cnt,mm", "-trace", "t.json")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("want a nonzero exit, got %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "t.json")); !os.IsNotExist(err) {
		t.Errorf("rejected run wrote a trace file (stat: %v)", err)
	}
}
