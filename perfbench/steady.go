package main

import (
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadiness runs each workload (or only name) n times in fresh processes
// with seeds seed, seed+1, ... and prints, per end-to-end metric, the
// median and the interquartile range as a share of the median: the spread
// the benchmark's bounds are set against.
func steadiness(name string, n int, seed uint64, seconds float64) error {
	names := workloadNames
	if name != "" {
		names = []string{name}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range names {
		values := map[string][]float64{}
		units := map[string]string{}
		failed := 0
		for i := 0; i < n; i++ {
			s := seed + uint64(i)
			cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatUint(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			res, err := parseResult(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			if !res.Correct {
				failed++
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
			fmt.Fprintf(os.Stderr, "perfbench: steady %s seed %d done\n", w, s)
		}
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("%s: %d runs, %d incorrect\n", w, n, failed)
		fmt.Printf("  %-18s %12s %12s %12s %8s\n", "metric", "median", "q1", "q3", "iqr/med")
		for _, k := range keys {
			q1, q3 := quartiles(values[k])
			med := median(values[k])
			fmt.Printf("  %-18s %12.6g %12.6g %12.6g %7.2f%%  %s\n", k, med, q1, q3, 100*(q3-q1)/med, units[k])
		}
	}
	return nil
}
