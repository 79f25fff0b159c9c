package main

import (
	"time"

	"visa/internal/cache"
	"visa/internal/clab"
	"visa/internal/exec"
	"visa/internal/memsys"
	"visa/internal/ooo"
	"visa/internal/power"
	"visa/internal/rt"
	"visa/internal/simple"
	"visa/internal/wcet"
)

// replayItem is one run's instruction streams: its task instances, by
// input seed, fed in order through one fresh pipeline and cache pair (a
// job's caches stay warm across its instances, as in rt).
type replayItem struct {
	bench *clab.Benchmark
	seeds []int32
}

func seedsFor(vary bool, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = instanceSeed(vary, i)
	}
	return out
}

// replayStats are host costs per instruction of each layer, measured
// outside the program on the workload's own instruction streams, and the
// modelled L1 statistics of the two timing models.
type replayStats struct {
	execNs, simpleNs, oooNs float64
	rounds                  int
	il1, dl1                cache.Stats
}

// replayLayers runs the items through exec.Machine.Fill alone, then Fill
// plus simple.Pipeline.Feed, then Fill plus ooo.Pipeline.Feed, timing each
// batch's Fill and Feed calls separately. Rounds repeat until budget has
// passed (at least two, at most five); each cost is the median over rounds.
// Fault injection and cache flushes are not replayed.
func replayLayers(items []replayItem, budget time.Duration) (replayStats, error) {
	var st replayStats
	var execR, simpleR, oooR []float64
	start := time.Now()
	for st.rounds < 5 && (st.rounds < 2 || time.Since(start) < budget) {
		var execT, simpleT, oooT time.Duration
		var insts int64
		for _, it := range items {
			prog, err := it.bench.Program()
			if err != nil {
				return st, err
			}
			m := exec.New(prog)
			ic, dc := cache.MustNew(cache.VISAL1), cache.MustNew(cache.VISAL1)
			sp := simple.New(ic, dc, memsys.NewBus(memsys.Default, 1000))
			oic, odc := cache.MustNew(cache.VISAL1), cache.MustNew(cache.VISAL1)
			cx := ooo.New(ooo.Config{}, oic, odc, memsys.NewBus(memsys.Default, 1000))
			for _, seed := range it.seeds {
				n, t, _, err := feedInstance(m, seed, nil)
				if err != nil {
					return st, err
				}
				insts += n
				execT += t
				sp.Rebase(0)
				if _, _, t, err = feedInstance(m, seed, sp.Feed); err != nil {
					return st, err
				}
				simpleT += t
				cx.Rebase(0)
				if _, _, t, err = feedInstance(m, seed, cx.Feed); err != nil {
					return st, err
				}
				oooT += t
			}
			if st.rounds == 0 {
				st.il1 = addStats(st.il1, ic.Stats(), oic.Stats())
				st.dl1 = addStats(st.dl1, dc.Stats(), odc.Stats())
			}
		}
		execR = append(execR, float64(execT)/float64(insts))
		simpleR = append(simpleR, float64(simpleT)/float64(insts))
		oooR = append(oooR, float64(oooT)/float64(insts))
		st.rounds++
	}
	st.execNs, st.simpleNs, st.oooNs = median(execR), median(simpleR), median(oooR)
	return st, nil
}

// feedInstance executes one task instance in 64-instruction batches and,
// when feed is set, times it on every instruction of each batch. It
// returns the instruction count, the time in Fill and the time in feed.
func feedInstance(m *exec.Machine, seed int32, feed func(*exec.DynInst) int64) (int64, time.Duration, time.Duration, error) {
	m.Reset()
	if seed != 0 {
		if err := clab.SetSeed(m, seed); err != nil {
			return 0, 0, 0, err
		}
	}
	var batch [64]exec.DynInst
	var fillT, feedT time.Duration
	for {
		t0 := time.Now()
		n, err := m.Fill(batch[:])
		t1 := time.Now()
		fillT += t1.Sub(t0)
		if err != nil {
			return 0, 0, 0, err
		}
		if feed != nil {
			for i := 0; i < n; i++ {
				feed(&batch[i])
			}
			feedT += time.Since(t1)
		}
		if n < len(batch) {
			return m.Seq, fillT, feedT, nil
		}
	}
}

func addStats(acc cache.Stats, more ...cache.Stats) cache.Stats {
	for _, s := range more {
		acc.Accesses += s.Accesses
		acc.Misses += s.Misses
	}
	return acc
}

// replayAnalysis repeats what set-up does for each benchmark's WCET table:
// a fresh wcet.Analyzer with the profiled D-cache pad, analysed at every
// operating point. It returns the mean host time per Analyze call and the
// number of calls. (rt's own set-up analyzer memoizes per miss penalty, so
// re-analysing with it would time map lookups.)
func replayAnalysis(benches []*clab.Benchmark) (float64, int, error) {
	var total time.Duration
	passes := 0
	for _, b := range benches {
		s, err := rt.GetSetup(b)
		if err != nil {
			return 0, 0, err
		}
		an, err := wcet.New(s.Prog)
		if err != nil {
			return 0, 0, err
		}
		if err := an.SetDCachePad(s.DPad); err != nil {
			return 0, 0, err
		}
		for _, pt := range power.Points() {
			t0 := time.Now()
			if _, err := an.Analyze(pt.FMHz); err != nil {
				return 0, 0, err
			}
			total += time.Since(t0)
			passes++
		}
	}
	return ms(total) / float64(passes), passes, nil
}
