package workload

import (
	"errors"
	"fmt"
	"io"
	"time"

	"ode/internal/bench"
)

// RunSuite runs the mixes in order, each on a fresh deployment of every
// shape shapes(wl) lists (so runs stay independent), and prints one
// line per run to out. A shape a mix cannot run on — it needs embedded
// APIs — is skipped with a line. A failed run does not stop the suite;
// the errors come back joined, beside the reports of the runs that
// passed.
func RunSuite(out io.Writer, mixes []*Workload, cfg Config, shapes func(*Workload) []bench.Shape) ([]*Report, error) {
	var reports []*Report
	var errs []error
	for _, wl := range mixes {
		for _, shape := range shapes(wl) {
			if shape.Kind != bench.Embedded && !wl.RemoteOK {
				mode := "remote"
				if shape.Kind == bench.Sharded {
					mode = "sharded"
				}
				fmt.Fprintf(out, "%-10s %-9s skipped: needs embedded APIs (%s)\n", wl.Name, mode, wl.Desc)
				continue
			}
			rep, err := wl.runOn(shape, cfg)
			if err != nil {
				errs = append(errs, err)
				continue
			}
			reports = append(reports, rep)
			fmt.Fprintf(out, "%-10s %-9s seed=%d workers=%d  %9d ops  %8.0f ops/s  p50=%s p99=%s  (%s)\n",
				rep.Workload, rep.Mode, rep.Seed, rep.Workers, rep.Ops, rep.OpsPerSec,
				time.Duration(rep.Latency.P50Ns), time.Duration(rep.Latency.P99Ns),
				time.Duration(rep.NsTotal).Round(time.Millisecond))
		}
	}
	return reports, errors.Join(errs...)
}

// runOn opens one deployment shape, runs the mix on it, and closes it.
func (wl *Workload) runOn(shape bench.Shape, cfg Config) (*Report, error) {
	d, err := bench.Open(shape)
	if err != nil {
		return nil, fmt.Errorf("workload %q: %w", wl.Name, err)
	}
	defer d.Close()
	return wl.Run(d, cfg)
}
