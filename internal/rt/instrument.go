package rt

import "visa/internal/obs"

// jobInstruments holds one processor run's distributional instruments:
// deterministic fixed-boundary histograms and simulated-time timers for
// the quantities the scalar counters flatten away — the measurement style
// WCET over/under-estimation mining needs. All methods are nil-safe, so
// runTask's hot path carries no enabled-guards.
type jobInstruments struct {
	// margin is the watchdog margin (cycles remaining) observed at every
	// passed checkpoint — the distribution whose left tail predicts
	// recovery switches.
	margin *obs.Histogram
	// drain times the recovery switch's drain window in cycles (EQ 2/4's
	// variable overhead on top of the fixed OvhdNs term).
	drain *obs.Timer
	// latency times each task instance's engine execution in cycles.
	latency *obs.Timer
	// slack is the per-instance deadline slack in ns.
	slack *obs.Histogram
}

// newJobInstruments builds the instrument set under the run's series
// prefix (so one metrics stream can carry many runs). Boundaries are fixed powers
// of two (deterministic, never rebalanced): cycle quantities span 1..2^26,
// slack spans 1..2^27 ns.
func newJobInstruments(prefix string) *jobInstruments {
	return &jobInstruments{
		margin:  obs.MustHistogram(prefix+".hist.watchdog_margin_cycles", obs.Exp2Boundaries(0, 26)),
		drain:   obs.MustTimer(prefix+".hist.switch_drain_cycles", obs.Exp2Boundaries(0, 16)),
		latency: obs.MustTimer(prefix+".hist.instance_cycles", obs.Exp2Boundaries(4, 26)),
		slack:   obs.MustHistogram(prefix+".hist.deadline_slack_ns", obs.Exp2Boundaries(0, 27)),
	}
}

// hists lists the instruments' histograms in a fixed export order.
func (ji *jobInstruments) hists() []*obs.Histogram {
	if ji == nil {
		return nil
	}
	return []*obs.Histogram{ji.margin, ji.drain.H(), ji.latency.H(), ji.slack}
}

// checkpointMargin records a passed checkpoint's remaining watchdog budget.
func (ji *jobInstruments) checkpointMargin(cycles int64) {
	if ji == nil {
		return
	}
	ji.margin.ObserveInt(cycles)
}

// switchDrain records a recovery switch's drain window [atCyc, resumeCyc].
func (ji *jobInstruments) switchDrain(atCyc, resumeCyc int64) {
	if ji == nil {
		return
	}
	ji.drain.Observe(atCyc, resumeCyc)
}

// instanceDone records one instance's engine latency and deadline slack.
func (ji *jobInstruments) instanceDone(cycles int64, slackNs float64) {
	if ji == nil {
		return
	}
	ji.latency.Observe(0, cycles)
	ji.slack.Observe(slackNs)
}

// writeRecords streams the instruments through the metrics path as one
// kind:"hist" record each, tagged with the run's identity. Per-job record
// buffers make this deterministic for any worker count.
func (ji *jobInstruments) writeRecords(mw *obs.MetricsWriter, label, bench, proc string) {
	if ji == nil || mw == nil {
		return
	}
	for _, h := range ji.hists() {
		mw.Write(h.Record(
			obs.F("kind", "hist"),
			obs.F("label", label),
			obs.F("bench", bench),
			obs.F("proc", proc),
		))
	}
}
