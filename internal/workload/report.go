package workload

import (
	"encoding/json"
	"fmt"
	"time"

	"ode/internal/obs"
)

// Report is the machine-readable result of one workload run. Field
// order is load-bearing: ci/workload_gate.sh scans the marshaled JSON
// line-by-line and relies on "workload" and "mode" appearing before
// "ops_per_sec" (TestReportFieldOrder pins this).
type Report struct {
	Workload  string           `json:"workload"`
	Mode      string           `json:"mode"`
	Seed      int64            `json:"seed"`
	Workers   int              `json:"workers"`
	Short     bool             `json:"short,omitempty"`
	Ops       int64            `json:"ops"`
	NsTotal   int64            `json:"ns_total"`
	NsPerOp   int64            `json:"ns_per_op"`
	OpsPerSec float64          `json:"ops_per_sec"`
	OpCounts  map[string]int64 `json:"op_counts"`
	Latency   LatencySummary   `json:"latency"`
	Counters  map[string]int64 `json:"counters,omitempty"`
}

// LatencySummary condenses the run's obs.Histogram. The quantiles are
// bucket upper bounds (the histogram is fixed-bucket), so they
// overestimate by at most one bucket width; samples past the last bound
// clamp to it.
type LatencySummary struct {
	Count  uint64 `json:"count"`
	MeanNs int64  `json:"mean_ns"`
	P50Ns  int64  `json:"p50_ns"`
	P90Ns  int64  `json:"p90_ns"`
	P99Ns  int64  `json:"p99_ns"`
	MaxNs  int64  `json:"max_ns"`
}

// report assembles the Report after a run.
func (r *runner) report(name string, elapsed time.Duration, counters map[string]int64) *Report {
	ops := int64(r.ops.Load())
	rep := &Report{
		Workload: name,
		Mode:     r.d.Mode(),
		Seed:     r.cfg.Seed,
		Workers:  r.cfg.Workers,
		Short:    r.cfg.Short,
		Ops:      ops,
		NsTotal:  elapsed.Nanoseconds(),
		OpCounts: map[string]int64{},
		Latency:  summarize(r.hist.Snapshot()),
		Counters: counters,
	}
	for _, kind := range r.sortedKinds() {
		rep.OpCounts[kind] = r.opCounts[kind]
	}
	if ops > 0 {
		rep.NsPerOp = elapsed.Nanoseconds() / ops
		rep.OpsPerSec = float64(ops) / elapsed.Seconds()
	}
	return rep
}

// summarize reduces a histogram snapshot to the summary quantiles.
func summarize(s obs.HistogramSnapshot) LatencySummary {
	sum := LatencySummary{Count: s.Count, MeanNs: s.Mean().Nanoseconds()}
	if s.Count == 0 {
		return sum
	}
	sum.P50Ns = quantile(s, 0.50)
	sum.P90Ns = quantile(s, 0.90)
	sum.P99Ns = quantile(s, 0.99)
	for i := len(s.Buckets) - 1; i >= 0; i-- {
		if s.Buckets[i] > 0 {
			sum.MaxNs = boundNs(i)
			break
		}
	}
	return sum
}

// quantile returns the upper bound of the bucket holding the q-th
// sample.
func quantile(s obs.HistogramSnapshot, q float64) int64 {
	target := uint64(q * float64(s.Count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		if cum >= target {
			return boundNs(i)
		}
	}
	return boundNs(len(s.Buckets) - 1)
}

// boundNs is the bucket's upper bound in nanoseconds; the overflow
// bucket clamps to the largest finite bound.
func boundNs(i int) int64 {
	if b := obs.BucketBound(i); b >= 0 {
		return b.Nanoseconds()
	}
	return obs.BucketBound(obs.NumHistBuckets - 2).Nanoseconds()
}

// EncodeReports marshals reports the way ode-bench writes them: a JSON
// array, indented, one trailing newline. The gate scripts and
// DecodeReports both consume exactly this shape.
func EncodeReports(reps []*Report) ([]byte, error) {
	buf, err := json.MarshalIndent(reps, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// DecodeReports is the inverse of EncodeReports.
func DecodeReports(data []byte) ([]*Report, error) {
	var reps []*Report
	if err := json.Unmarshal(data, &reps); err != nil {
		return nil, fmt.Errorf("workload report: %w", err)
	}
	return reps, nil
}
