package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is BENCHMARK.json: the names this program must report and
// the bound each end-to-end metric may worsen by.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec := &benchSpec{}
	if err := json.Unmarshal(raw, spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// runAA runs every workload's timed run twice on the same code with the
// same seed and prints, for each pair of end-to-end metric and workload,
// how far the two runs are apart next to the metric's bound. Two runs of
// one program that differ by more than the bound mean the benchmark
// could not tell a regression of that size from its own noise. It
// returns the process exit code: 1 on any breach or incorrect run.
func runAA(wls []*workload, cfg config, specPath string, out io.Writer) int {
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	code := 0
	fmt.Fprintf(out, "%-10s %-16s %14s %14s %8s %6s\n", "workload", "metric", "run A", "run B", "apart", "bound")
	for _, wl := range wls {
		var runs [2]*report
		for i := range runs {
			if runs[i], err = runTimed(wl, cfg); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
				return 1
			}
			if !runs[i].correct() {
				fmt.Fprintf(out, "%-10s run %c is not correct: %v\n", wl.name, 'A'+i, runs[i].problems)
				code = 1
			}
		}
		for _, m := range spec.EndToEnd {
			a, b := runs[0].m[m.Name], runs[1].m[m.Name]
			apart := math.Abs(b-a) / a
			flag := ""
			if apart > m.Bound {
				flag, code = "  BREACH", 1
			}
			fmt.Fprintf(out, "%-10s %-16s %14.4f %14.4f %7.1f%% %5.0f%%%s\n", wl.name, m.Name, a, b, 100*apart, 100*m.Bound, flag)
		}
	}
	return code
}
