package rt

import (
	"fmt"
	"strings"

	"visa/internal/clab"
	"visa/internal/obs"
)

// Table3Row reproduces one column of the paper's Table 3.
type Table3Row struct {
	Name         string
	DynInsts     int64
	TightNs      float64
	LooseNs      float64
	SubTasks     int
	WCETUs       float64 // WCET at 1 GHz
	SimpleUs     float64 // actual, simple-fixed at 1 GHz
	ComplexUs    float64 // actual, complex at 1 GHz
	WCETOverSim  float64
	SimOverCmplx float64
}

// table3Row computes one benchmark's static-analysis and actual-time
// summary (paper Table 3 / §6.1). When sink carries a metrics writer, the
// row is also emitted as a kind:"table3" record, followed by one
// kind:"table3_subtask" record per sub-task with its WCET bound and
// D-cache pad — the machine-readable form of the printed table.
func table3Row(b *clab.Benchmark, sink *obs.Sink) (Table3Row, error) {
	s, err := GetSetup(b)
	if err != nil {
		return Table3Row{}, err
	}
	wcetUs := s.Table.TotalTimeNs(len(s.Table.Points)-1) / 1000
	simUs := float64(s.SteadySimpleCycles) / 1000
	cxUs := float64(s.SteadyComplexCycles) / 1000
	row := Table3Row{
		Name:         b.Name,
		DynInsts:     s.DynInsts,
		TightNs:      s.Deadline(true),
		LooseNs:      s.Deadline(false),
		SubTasks:     b.SubTasks,
		WCETUs:       wcetUs,
		SimpleUs:     simUs,
		ComplexUs:    cxUs,
		WCETOverSim:  wcetUs / simUs,
		SimOverCmplx: simUs / cxUs,
	}
	if mw := sink.M(); mw != nil {
		mw.Write(obs.Record{
			obs.F("kind", "table3"),
			obs.F("bench", row.Name),
			obs.F("dyn_insts", row.DynInsts),
			obs.F("tight_ns", row.TightNs),
			obs.F("loose_ns", row.LooseNs),
			obs.F("sub_tasks", row.SubTasks),
			obs.F("wcet_us", row.WCETUs),
			obs.F("simple_us", row.SimpleUs),
			obs.F("complex_us", row.ComplexUs),
			obs.F("wcet_over_simple", row.WCETOverSim),
			obs.F("simple_over_complex", row.SimOverCmplx),
		})
		last := len(s.Table.Points) - 1
		for k := 0; k < s.Table.NumSubTasks(); k++ {
			mw.Write(obs.Record{
				obs.F("kind", "table3_subtask"),
				obs.F("bench", row.Name),
				obs.F("sub_task", k),
				obs.F("wcet_cycles_1ghz", s.Table.Cycles[last][k]),
				obs.F("dcache_pad", s.DPad[k]),
			})
		}
	}
	return row, nil
}

// Table3Plan builds the Table 3 plan: one JobTable3 per benchmark.
func Table3Plan(benches []*clab.Benchmark) *Plan {
	jobs := make([]Job, len(benches))
	for i, b := range benches {
		jobs[i] = Job{Bench: b, Kind: JobTable3, Config: Config{Label: "table3"}}
	}
	return &Plan{
		Name: "table3",
		Jobs: jobs,
		Render: func(r *Report) string {
			return FormatTable3(r.Table3Rows())
		},
	}
}

// FormatTable3 renders rows like the paper's Table 3.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE 3. C-lab benchmarks (scaled inputs).\n")
	fmt.Fprintf(&b, "%-22s", "")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10s", r.Name)
	}
	b.WriteByte('\n')
	line := func(label string, f func(Table3Row) string) {
		fmt.Fprintf(&b, "%-22s", label)
		for _, r := range rows {
			fmt.Fprintf(&b, "%10s", f(r))
		}
		b.WriteByte('\n')
	}
	line("# dyn. inst. 1 task", func(r Table3Row) string { return fmt.Sprintf("%.1fK", float64(r.DynInsts)/1000) })
	line("tight dead. (us)", func(r Table3Row) string { return fmt.Sprintf("%.1f", r.TightNs/1000) })
	line("loose dead. (us)", func(r Table3Row) string { return fmt.Sprintf("%.1f", r.LooseNs/1000) })
	line("# of sub-tasks", func(r Table3Row) string { return fmt.Sprintf("%d", r.SubTasks) })
	line("WCET @1GHz (us)", func(r Table3Row) string { return fmt.Sprintf("%.1f", r.WCETUs) })
	line("actual: simple (us)", func(r Table3Row) string { return fmt.Sprintf("%.1f", r.SimpleUs) })
	line("actual: complex (us)", func(r Table3Row) string { return fmt.Sprintf("%.1f", r.ComplexUs) })
	line("WCET/simple", func(r Table3Row) string { return fmt.Sprintf("%.2f", r.WCETOverSim) })
	line("simple/complex", func(r Table3Row) string { return fmt.Sprintf("%.2f", r.SimOverCmplx) })
	return b.String()
}

// SavingsRow is one benchmark's power comparison for Figures 2-4.
type SavingsRow struct {
	Name    string
	Tight   bool
	Complex *ProcResult
	Simple  *ProcResult
	Savings float64 // 1 - complex/simple average power
}

// RunComparison runs both processors under cfg and returns the power
// comparison. FlushTasks only perturbs the complex processor (Figure 4
// injects mispredictions into the VISA-compliant core; simple-fixed is the
// unperturbed baseline).
func RunComparison(b *clab.Benchmark, cfg Config) (*SavingsRow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s, err := GetSetup(b)
	if err != nil {
		return nil, err
	}
	cx, err := RunProcessor(s, ProcComplex, cfg)
	if err != nil {
		return nil, err
	}
	simpleCfg := cfg
	simpleCfg.FlushTasks = 0
	sf, err := RunProcessor(s, ProcSimpleFixed, simpleCfg)
	if err != nil {
		return nil, err
	}
	if cx.DeadlineViolations > 0 || sf.DeadlineViolations > 0 {
		return nil, errf("rt: %s: DEADLINE VIOLATED (complex=%d simple=%d) — safety property broken",
			b.Name, cx.DeadlineViolations, sf.DeadlineViolations)
	}
	row := &SavingsRow{
		Name:    b.Name,
		Tight:   cfg.Tight,
		Complex: cx,
		Simple:  sf,
		Savings: Savings(cx, sf),
	}
	if mw := cfg.Obs.M(); mw != nil {
		mw.Write(obs.Record{
			obs.F("kind", "summary"),
			obs.F("label", cfg.Label),
			obs.F("bench", b.Name),
			obs.F("tight", cfg.Tight),
			obs.F("standby", cfg.Standby),
			obs.F("freq_advantage", cfg.FreqAdvantage),
			obs.F("flush_tasks", cfg.FlushTasks),
			obs.F("savings", row.Savings),
			obs.F("complex_avg_power", cx.AvgPower),
			obs.F("simple_avg_power", sf.AvgPower),
			obs.F("complex_energy", cx.Energy),
			obs.F("simple_energy", sf.Energy),
			obs.F("complex_missed", cx.MissedTasks),
			obs.F("simple_missed", sf.MissedTasks),
			obs.F("complex_spec_mhz", cx.FinalSpecMHz),
			obs.F("complex_rec_mhz", cx.FinalRecMHz),
			obs.F("simple_spec_mhz", sf.FinalSpecMHz),
		})
	}
	return row, nil
}

// Figure2Plan builds the headline experiment: power savings of the
// VISA-compliant complex processor relative to simple-fixed, tight and
// loose deadlines, with and without 10% standby power. Per benchmark the
// jobs run in the order T, T+stby, L, L+stby; the renderer consumes them
// pairwise.
func Figure2Plan(benches []*clab.Benchmark, instances int) *Plan {
	var jobs []Job
	for _, b := range benches {
		for _, tight := range []bool{true, false} {
			tag := "T"
			if !tight {
				tag = "L"
			}
			jobs = append(jobs,
				Job{Bench: b, Config: Config{
					Tight: tight, Instances: instances,
					Label: "fig2/" + tag}},
				Job{Bench: b, Config: Config{
					Tight: tight, Instances: instances, Standby: true,
					Label: "fig2/" + tag + "+stby"}})
		}
	}
	return &Plan{Name: "fig2", Jobs: jobs, Render: renderFigure2}
}

func renderFigure2(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE 2. Power savings of the VISA-compliant complex processor\n")
	fmt.Fprintf(&b, "relative to simple-fixed (T=tight, L=loose deadline).\n\n")
	fmt.Fprintf(&b, "%-8s %6s %14s %14s %12s %12s\n",
		"bench", "dl", "savings", "savings+stby", "simple MHz", "complex MHz")
	rows := r.SavingsRows()
	for i := 0; i+1 < len(rows); i += 2 {
		row, sb := rows[i], rows[i+1]
		tag := "T"
		if !row.Tight {
			tag = "L"
		}
		fmt.Fprintf(&b, "%-8s %6s %13.1f%% %13.1f%% %12d %12d\n",
			row.Name, tag, row.Savings*100, sb.Savings*100,
			row.Simple.FinalSpecMHz, row.Complex.FinalSpecMHz)
	}
	return b.String()
}

// Figure3Plan grants simple-fixed 1.5x the frequency at equal voltage
// (tight deadline). Per benchmark: base then +stby.
func Figure3Plan(benches []*clab.Benchmark, instances int) *Plan {
	var jobs []Job
	for _, b := range benches {
		jobs = append(jobs,
			Job{Bench: b, Config: Config{
				Tight: true, FreqAdvantage: 1.5, Instances: instances,
				Label: "fig3"}},
			Job{Bench: b, Config: Config{
				Tight: true, FreqAdvantage: 1.5, Instances: instances,
				Standby: true, Label: "fig3+stby"}})
	}
	return &Plan{Name: "fig3", Jobs: jobs, Render: renderFigure3}
}

func renderFigure3(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE 3. Power savings with simple-fixed granted 1.5x frequency\n")
	fmt.Fprintf(&b, "at equal voltage (tight deadline).\n\n")
	fmt.Fprintf(&b, "%-8s %14s %14s %12s %12s\n",
		"bench", "savings", "savings+stby", "simple MHz", "complex MHz")
	rows := r.SavingsRows()
	for i := 0; i+1 < len(rows); i += 2 {
		row, sb := rows[i], rows[i+1]
		fmt.Fprintf(&b, "%-8s %13.1f%% %13.1f%% %12d %12d\n",
			row.Name, row.Savings*100, sb.Savings*100,
			row.Simple.FinalSpecMHz, row.Complex.FinalSpecMHz)
	}
	return b.String()
}

// figure4Pcts are the misprediction-injection rates of Figure 4, in job
// order per benchmark.
var figure4Pcts = []int{0, 10, 20, 30}

// Figure4Plan injects mispredictions by flushing caches and predictors at
// the start of 10%, 20%, and 30% of tasks (tight deadline); every deadline
// must still be met. Per benchmark: one job per rate, 0% first.
func Figure4Plan(benches []*clab.Benchmark, instances int) *Plan {
	n := instances
	if n == 0 {
		n = Instances
	}
	var jobs []Job
	for _, b := range benches {
		for _, pct := range figure4Pcts {
			jobs = append(jobs, Job{Bench: b, Config: Config{
				Tight: true, Instances: n, FlushTasks: n * pct / 100,
				Label: fmt.Sprintf("fig4/%d%%", pct)}})
		}
	}
	return &Plan{Name: "fig4", Jobs: jobs, Render: renderFigure4}
}

func renderFigure4(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE 4. Power savings with injected mispredictions\n")
	fmt.Fprintf(&b, "(caches+predictors flushed at the start of 10%%/20%%/30%% of tasks).\n\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %10s %10s %14s\n",
		"bench", "0%", "10%", "20%", "30%", "missed@30%")
	rows := r.SavingsRows()
	k := len(figure4Pcts)
	for i := 0; i+k-1 < len(rows); i += k {
		fmt.Fprintf(&b, "%-8s ", rows[i].Name)
		for j := 0; j < k; j++ {
			fmt.Fprintf(&b, "%9.1f%% ", rows[i+j].Savings*100)
		}
		fmt.Fprintf(&b, "%14d\n", rows[i+k-1].Complex.MissedTasks)
	}
	fmt.Fprintf(&b, "\nAll deadlines met in every run (checked).\n")
	return b.String()
}
