package workload

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"ode/internal/bench"
)

func shortCfg(seed int64) Config {
	return Config{Seed: seed, Workers: 2, Short: true}
}

// runOn opens the shape, runs the mix on it, and closes it again.
func runOn(t *testing.T, shape bench.Shape, wl *Workload, cfg Config) (*Report, *bench.Deployment) {
	t.Helper()
	d, err := bench.Open(shape)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	rep, err := wl.Run(d, cfg)
	if err != nil {
		t.Fatalf("%s (%s): %v", wl.Name, d.Mode(), err)
	}
	return rep, d
}

func runEmbedded(t *testing.T, wl *Workload, cfg Config) *Report {
	t.Helper()
	rep, _ := runOn(t, bench.Shape{Opts: wl.DBOptions(cfg)}, wl, cfg)
	return rep
}

// TestMixesEmbeddedShort runs every registered mix at CI size and
// sanity-checks the report shape.
func TestMixesEmbeddedShort(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every mix; minutes in -short CI shards")
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			wl, ok := Lookup(name)
			if !ok {
				t.Fatalf("Lookup(%q) missing", name)
			}
			rep := runEmbedded(t, wl, shortCfg(1))
			if rep.Workload != name || rep.Mode != "embedded" {
				t.Fatalf("report header: %+v", rep)
			}
			if rep.Ops == 0 || len(rep.OpCounts) == 0 {
				t.Fatalf("%s: no ops recorded: %+v", name, rep)
			}
			if rep.Latency.Count == 0 || rep.Latency.P50Ns <= 0 {
				t.Fatalf("%s: empty latency summary: %+v", name, rep.Latency)
			}
			if rep.OpsPerSec <= 0 || rep.NsPerOp <= 0 {
				t.Fatalf("%s: no throughput: %+v", name, rep)
			}
		})
	}
}

// TestOpCountsDeterministic pins the acceptance requirement: the op
// counts of a seeded run are byte-reproducible.
func TestOpCountsDeterministic(t *testing.T) {
	for _, name := range []string{"bom", "points"} {
		wl, _ := Lookup(name)
		a := runEmbedded(t, wl, shortCfg(1))
		b := runEmbedded(t, wl, shortCfg(1))
		if !reflect.DeepEqual(a.OpCounts, b.OpCounts) || a.Ops != b.Ops {
			t.Fatalf("%s seed=1 not reproducible:\n%v\n%v", name, a.OpCounts, b.OpCounts)
		}
	}
}

// TestRemoteMatchesEmbedded runs the points mix embedded and through a
// loopback server; the op mix is a pure function of the seed, so the
// two reports must agree on every count.
func TestRemoteMatchesEmbedded(t *testing.T) {
	wl, _ := Lookup("points")
	cfg := shortCfg(7)
	emb := runEmbedded(t, wl, cfg)

	rem, _ := runOn(t, bench.Shape{Kind: bench.Remote}, wl, cfg)
	if rem.Mode != "remote" {
		t.Fatalf("mode = %q", rem.Mode)
	}
	if !reflect.DeepEqual(emb.OpCounts, rem.OpCounts) {
		t.Fatalf("op counts diverge across transports:\nembedded %v\nremote   %v",
			emb.OpCounts, rem.OpCounts)
	}
	if len(rem.Counters) == 0 {
		t.Fatal("remote report carries no server counter deltas")
	}
}

// TestTriggersRefusedRemotely pins the capability flag.
func TestTriggersRefusedRemotely(t *testing.T) {
	wl, _ := Lookup("triggers")
	_, cw := bench.Schema()
	if _, err := wl.Run(&bench.Deployment{World: cw}, shortCfg(1)); err == nil {
		t.Fatal("trigger mix ran remotely; it needs embedded activation")
	}
}

// TestChurn10xLargerThanRAM is the acceptance test for the
// larger-than-RAM scenario: the dataset dwarfs the pool, the run
// completes inside the fixed pool, and compaction reclaims the pages
// the mass delete left behind.
func TestChurn10xLargerThanRAM(t *testing.T) {
	wl, _ := Lookup("churn10x")
	cfg := shortCfg(1)
	opts := wl.DBOptions(cfg)
	rep, d := runOn(t, bench.Shape{Opts: opts}, wl, cfg)
	if pages := d.DB.Stats().Pages; int(pages) < 5*opts.PoolPages {
		t.Fatalf("dataset is not larger than RAM: %d pages vs %d pool frames", pages, opts.PoolPages)
	}
	if rep.Counters["storage.compactions"] != 2 {
		t.Fatalf("storage.compactions delta = %d, want 2 (counters: %v)",
			rep.Counters["storage.compactions"], rep.Counters)
	}
	if rep.Counters["storage.pages_reclaimed"] <= 0 {
		t.Fatalf("compaction reclaimed no pages: %v", rep.Counters)
	}
	if rep.OpCounts["delete"] == 0 || rep.OpCounts["insert"] == 0 {
		t.Fatalf("churn accounting empty: %v", rep.OpCounts)
	}
}

// TestReportRoundTrip pins the JSON report schema: encode → decode is
// lossless, so the committed baseline and the gate always speak the
// same format.
func TestReportRoundTrip(t *testing.T) {
	in := []*Report{{
		Workload: "points", Mode: "embedded", Seed: 1, Workers: 4, Short: true,
		Ops: 4000, NsTotal: 9e9, NsPerOp: 2250000, OpsPerSec: 444.4,
		OpCounts: map[string]int64{"deref.hot": 3200, "update": 310},
		Latency:  LatencySummary{Count: 4000, MeanNs: 8000, P50Ns: 4000, P90Ns: 16000, P99Ns: 64000, MaxNs: 256000},
		Counters: map[string]int64{"pool.hits": 12345},
	}}
	buf, err := EncodeReports(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeReports(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip lost data:\nin  %+v\nout %+v", in[0], out[0])
	}
}

// TestReportFieldOrder pins the marshaled field order the gate's
// line-oriented awk extraction depends on: "workload", then "mode",
// then "workers", then "ops_per_sec" — see ci/gate_lib.sh.
func TestReportFieldOrder(t *testing.T) {
	buf, err := json.Marshal(&Report{Workload: "x", Mode: "embedded", Workers: 4, OpCounts: map[string]int64{}})
	if err != nil {
		t.Fatal(err)
	}
	s := string(buf)
	order := []string{`"workload"`, `"mode"`, `"workers"`, `"ops"`, `"ops_per_sec"`, `"op_counts"`}
	last := -1
	for _, key := range order {
		i := strings.Index(s, key)
		if i < 0 {
			t.Fatalf("report JSON lost field %s: %s", key, s)
		}
		if i < last {
			t.Fatalf("field %s moved before its predecessor; ci/gate_lib.sh scans fields in order. JSON: %s", key, s)
		}
		last = i
	}
}

// TestWorkloadMetricsDocComplete mirrors the engine's registry-diff
// test for the per-run workload.* family: every name a runner's
// Registry builds must appear backticked in docs/OBSERVABILITY.md.
func TestWorkloadMetricsDocComplete(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatalf("read docs/OBSERVABILITY.md: %v", err)
	}
	text := string(doc)

	reg := (&runner{}).Registry()
	names := reg.Names()
	if len(names) == 0 {
		t.Fatal("runner.Registry registered nothing")
	}
	for _, name := range names {
		if !strings.HasPrefix(name, "workload.") {
			t.Errorf("metric %q: workload metrics must live under workload.*", name)
		}
		if !strings.Contains(text, "`"+name+"`") {
			t.Errorf("metric %q is not documented in docs/OBSERVABILITY.md", name)
		}
	}
}
