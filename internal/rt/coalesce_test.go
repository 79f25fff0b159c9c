package rt

import (
	"bytes"
	"strings"
	"testing"

	"visa/internal/clab"
	"visa/internal/fault"
	"visa/internal/obs"
)

// smallSafetyPlan is a cut-down safety campaign — enough jobs (8) to make a
// wide worker pool meaningful, small enough to run in test time.
func smallSafetyPlan() *Plan {
	return SafetyCampaignPlan(clab.All()[:2], SafetyCampaign{
		Kinds:     fault.Kinds()[:2],
		Rates:     []int{250},
		Instances: 12,
		Seed:      7,
	})
}

// runCoalesced executes the plan with the given worker count and coalescing
// enabled, returning (report text, metrics bytes).
func runCoalesced(t *testing.T, workers int, coalesce bool) (string, string) {
	t.Helper()
	var metrics bytes.Buffer
	sink := &obs.Sink{Metrics: obs.NewMetricsWriter(&metrics, obs.FormatJSONL)}
	eng := &Engine{Workers: workers, Sink: sink, Coalesce: coalesce}
	rep, err := eng.Run(smallSafetyPlan())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Metrics.Close(); err != nil {
		t.Fatal(err)
	}
	return rep.Text, metrics.String()
}

// TestCoalescedCampaignDeterminism: with coalescing enabled the campaign's
// report and metrics stream must be byte-identical for any worker count —
// the per-job sinks flush into per-job buffers replayed in plan order.
func TestCoalescedCampaignDeterminism(t *testing.T) {
	text1, m1 := runCoalesced(t, 1, true)
	text8, m8 := runCoalesced(t, 8, true)
	if text1 != text8 {
		t.Error("report text differs between -j 1 and -j 8 with coalescing")
	}
	if m1 != m8 {
		t.Error("metrics stream differs between -j 1 and -j 8 with coalescing")
	}

	recs := decodeJSONL(t, []byte(m1))
	kinds := map[string]int{}
	for _, r := range recs {
		kinds[r["kind"].(string)]++
	}
	if kinds["counter.flush"] == 0 {
		t.Error("coalesced campaign emitted no counter.flush records")
	}
	if kinds["hist"] == 0 {
		t.Error("coalesced campaign emitted no hist records (distributions lost)")
	}
	if kinds["safety"] == 0 {
		t.Error("coalesced campaign lost its safety rows")
	}
	// The per-event record kinds must be fully absorbed by the coalescer.
	for _, gone := range []string{"instance", "fault.injected", "watchdog.fired"} {
		if kinds[gone] != 0 {
			t.Errorf("%d per-event %q records leaked past the coalescing sink", kinds[gone], gone)
		}
	}
}

// TestCoalescedCountersReconcile: the net totals in the coalesced stream
// must equal the event counts of the uncoalesced stream — coalescing
// changes the encoding, never the accounting.
func TestCoalescedCountersReconcile(t *testing.T) {
	_, plain := runCoalesced(t, 4, false)
	_, coal := runCoalesced(t, 4, true)

	// Aggregate the uncoalesced per-event records by counter meaning.
	var faults, fired, instances, missed int64
	for _, r := range decodeJSONL(t, []byte(plain)) {
		switch r["kind"] {
		case "fault.injected":
			faults += int64(r["count"].(float64))
		case "watchdog.fired":
			fired++
		case "instance":
			instances++
			if r["missed"].(bool) {
				missed++
			}
		}
	}
	if faults == 0 || instances == 0 {
		t.Fatal("uncoalesced campaign produced no event traffic to compare against")
	}

	// Aggregate the coalesced stream: last total per key, summed by suffix.
	totals := map[string]int64{}
	for _, r := range decodeJSONL(t, []byte(coal)) {
		if r["kind"] != "counter.flush" {
			continue
		}
		// Totals are cumulative; within one job each key flushes with its
		// final total last, and keys are label-prefixed so jobs never collide.
		totals[r["key"].(string)] = int64(r["total"].(float64))
	}
	sumSuffix := func(suffix string) int64 {
		var s int64
		for k, v := range totals {
			if strings.HasSuffix(k, suffix) {
				s += v
			}
		}
		return s
	}
	if got := sumSuffix(".fault.injected"); got != faults {
		t.Errorf("coalesced fault.injected total = %d, per-event stream says %d", got, faults)
	}
	if got := sumSuffix(".watchdog.fired"); got != fired {
		t.Errorf("coalesced watchdog.fired total = %d, per-event stream says %d", got, fired)
	}
	if got := sumSuffix(".instances"); got != instances {
		t.Errorf("coalesced instances total = %d, per-event stream says %d", got, instances)
	}
	if got := sumSuffix(".missed"); got != missed {
		t.Errorf("coalesced missed total = %d, per-event stream says %d", got, missed)
	}
	// Durable compression: the coalesced stream must carry fewer counter
	// records than the per-event stream carried events.
	coalRecs := decodeJSONL(t, []byte(coal))
	plainRecs := decodeJSONL(t, []byte(plain))
	if len(coalRecs) >= len(plainRecs) {
		t.Errorf("coalesced stream has %d records vs %d uncoalesced — no compression",
			len(coalRecs), len(plainRecs))
	}
}

// TestCoalescedComparisonPlans: coalescing must also hold the determinism
// contract on the figure plans (RunComparison jobs), where the dominant
// traffic is per-instance records.
func TestCoalescedComparisonPlans(t *testing.T) {
	run := func(workers int) (string, string) {
		var metrics bytes.Buffer
		sink := &obs.Sink{Metrics: obs.NewMetricsWriter(&metrics, obs.FormatJSONL)}
		eng := &Engine{Workers: workers, Sink: sink, Coalesce: true}
		rep, err := eng.Run(Figure2Plan(clab.All()[:3], 15))
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Metrics.Close(); err != nil {
			t.Fatal(err)
		}
		return rep.Text, metrics.String()
	}
	t1, m1 := run(1)
	t8, m8 := run(8)
	if t1 != t8 || m1 != m8 {
		t.Error("figure plan not byte-identical across worker counts with coalescing")
	}
	var flush, hist int
	for _, r := range decodeJSONL(t, []byte(m1)) {
		switch r["kind"] {
		case "counter.flush":
			flush++
		case "hist":
			hist++
		}
	}
	if flush == 0 || hist == 0 {
		t.Errorf("figure plan coalesced stream: %d counter.flush / %d hist records", flush, hist)
	}
}
