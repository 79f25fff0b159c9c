package rt

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"visa/internal/clab"
	"visa/internal/obs"
)

// fullSink builds a metrics sink backed by an in-memory buffer.
func fullSink() (*obs.Sink, *bytes.Buffer) {
	var metrics bytes.Buffer
	return &obs.Sink{Metrics: obs.NewMetricsWriter(&metrics)}, &metrics
}

// decodeJSONL parses a JSONL stream into generic records.
func decodeJSONL(t *testing.T, b []byte) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestObsDeterminism: running the same experiment twice with fresh sinks
// must produce byte-identical metrics — the simulator's reproducibility
// guarantee extends to its telemetry. The flush injection exercises
// checkpoint misses and mode switches.
func TestObsDeterminism(t *testing.T) {
	run := func() string {
		sink, metrics := fullSink()
		_, err := RunComparison(clab.ByName("cnt"), Config{
			Tight: true, Instances: 25, FlushTasks: 7,
			Obs: sink, Label: "det",
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Metrics.Close(); err != nil {
			t.Fatal(err)
		}
		return metrics.String()
	}
	m1 := run()
	m2 := run()
	if m1 != m2 {
		t.Error("metrics output differs between identical runs")
	}
	if len(m1) == 0 {
		t.Error("instrumented run produced empty output")
	}
}

// TestObsDoesNotPerturbSimulation: attaching a metrics sink must not change
// any simulated result — same energies, misses, and final frequencies as
// the uninstrumented run.
func TestObsDoesNotPerturbSimulation(t *testing.T) {
	cfg := Config{Tight: true, Instances: 25, FlushTasks: 7}
	plain, err := RunComparison(clab.ByName("cnt"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink, _ := fullSink()
	cfg.Obs, cfg.Label = sink, "perturb"
	obsd, err := RunComparison(clab.ByName("cnt"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Complex.Energy != obsd.Complex.Energy ||
		plain.Simple.Energy != obsd.Simple.Energy {
		t.Errorf("instrumentation changed energy: %v/%v vs %v/%v",
			plain.Complex.Energy, plain.Simple.Energy,
			obsd.Complex.Energy, obsd.Simple.Energy)
	}
	if plain.Complex.MissedTasks != obsd.Complex.MissedTasks {
		t.Errorf("instrumentation changed missed tasks: %d vs %d",
			plain.Complex.MissedTasks, obsd.Complex.MissedTasks)
	}
	if plain.Complex.FinalSpecMHz != obsd.Complex.FinalSpecMHz {
		t.Errorf("instrumentation changed final frequency: %d vs %d",
			plain.Complex.FinalSpecMHz, obsd.Complex.FinalSpecMHz)
	}
}

// TestInstanceRecordsReconcile: the per-instance metrics must aggregate back
// to the ProcResult — instance energies sum to the total energy, the
// instance count matches, missed flags match the counter, and no instance
// exceeds its deadline.
func TestInstanceRecordsReconcile(t *testing.T) {
	const n = 25
	sink, metrics := fullSink()
	row, err := RunComparison(clab.ByName("cnt"), Config{
		Tight: true, Instances: n, FlushTasks: 7,
		Obs: sink, Label: "agg",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Metrics.Close(); err != nil {
		t.Fatal(err)
	}

	for _, proc := range []struct {
		name string
		res  *ProcResult
	}{
		{"complex", row.Complex},
		{"simple-fixed", row.Simple},
	} {
		var count, missed int
		var energy float64
		for _, r := range decodeJSONL(t, metrics.Bytes()) {
			if r["kind"] != "instance" || r["proc"] != proc.name {
				continue
			}
			count++
			energy += r["energy"].(float64)
			if r["missed"].(bool) {
				missed++
			}
			if r["time_ns"].(float64) > r["deadline_ns"].(float64)+1e-6 {
				t.Errorf("%s instance %v exceeded its deadline in the metrics", proc.name, r["instance"])
			}
		}
		if count != n {
			t.Errorf("%s: %d instance records, want %d", proc.name, count, n)
		}
		if missed != proc.res.MissedTasks {
			t.Errorf("%s: %d missed in metrics, ProcResult says %d", proc.name, missed, proc.res.MissedTasks)
		}
		if math.Abs(energy-proc.res.Energy) > 1e-6*proc.res.Energy {
			t.Errorf("%s: instance energies sum to %v, ProcResult.Energy = %v", proc.name, energy, proc.res.Energy)
		}
	}
}

// TestTable3Records: the machine-readable table3 records must carry exactly
// the printed rows, and the per-sub-task records must cover each benchmark's
// sub-tasks.
func TestTable3Records(t *testing.T) {
	var metrics bytes.Buffer
	sink := &obs.Sink{Metrics: obs.NewMetricsWriter(&metrics)}
	rep, err := (&Engine{Workers: 1, Sink: sink}).Run(Table3Plan(clab.All()))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	rows := rep.Table3Rows()
	if err := sink.Metrics.Close(); err != nil {
		t.Fatal(err)
	}
	byBench := map[string]map[string]any{}
	subCount := map[string]int{}
	for _, r := range decodeJSONL(t, metrics.Bytes()) {
		switch r["kind"] {
		case "table3":
			byBench[r["bench"].(string)] = r
		case "table3_subtask":
			subCount[r["bench"].(string)]++
		}
	}
	if len(byBench) != len(rows) {
		t.Fatalf("%d table3 records for %d rows", len(byBench), len(rows))
	}
	for _, row := range rows {
		rec := byBench[row.Name]
		if rec == nil {
			t.Fatalf("no table3 record for %s", row.Name)
		}
		if got := rec["wcet_us"].(float64); got != row.WCETUs {
			t.Errorf("%s: wcet_us %v != row %v", row.Name, got, row.WCETUs)
		}
		if got := rec["simple_us"].(float64); got != row.SimpleUs {
			t.Errorf("%s: simple_us %v != row %v", row.Name, got, row.SimpleUs)
		}
		if got := int(rec["dyn_insts"].(float64)); got != int(row.DynInsts) {
			t.Errorf("%s: dyn_insts %v != row %v", row.Name, got, row.DynInsts)
		}
		if subCount[row.Name] != row.SubTasks {
			t.Errorf("%s: %d sub-task records, want %d", row.Name, subCount[row.Name], row.SubTasks)
		}
	}
}
