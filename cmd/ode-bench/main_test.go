package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ode/internal/bench"
)

func TestFlagsToParams(t *testing.T) {
	c, err := parseFlags([]string{"-quick", "-run", "e3, E16", "-workers", "3", "-max-tx", "2",
		"-deadline", "20ms", "-overload", "5", "-connect", "h:1", "-json", "out.json", "-http", ":0"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := bench.Params{Div: 10, Workers: 3, MaxTx: 2, Deadline: 20 * time.Millisecond, Overload: 5, Connect: "h:1"}
	if c.params != want {
		t.Errorf("params %+v, want %+v", c.params, want)
	}
	if !reflect.DeepEqual(c.run, map[string]bool{"E3": true, "E16": true}) {
		t.Errorf("run filter %v", c.run)
	}
	if c.jsonPath != "out.json" || c.httpAddr != ":0" {
		t.Errorf("config %+v", c)
	}

	c, err = parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.params != bench.Defaults() || len(c.run) != 0 {
		t.Errorf("defaults: %+v", c)
	}
}

func TestBadCommandLines(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "E3,E99"},         // unknown experiment id
		{"-faults"},                // removed: TestTortureCI fronts the torture suite
		{"-connect-shards", "a,b"}, // removed: -connect takes the list
		{"-workload", "all"},       // removed with its suite: benchmark/ runs the mixes
		{"-seed", "1"},             // went with -workload
		{"-loopback"},              // went with -workload
	} {
		var stderr bytes.Buffer
		if code := run(args, io.Discard, &stderr); code != 2 || stderr.Len() == 0 {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and a message", args, code, stderr.String())
		}
	}
}

// TestRecord pins the -json labels: a row with several timings records
// each under the row name plus its own column only.
func TestRecord(t *testing.T) {
	m := &bench.Measurement{PerOp: 1500 * time.Nanosecond, Extra: map[string]float64{}}
	for _, tc := range []struct {
		c    bench.Case
		want string
	}{
		{bench.Case{Name: "pnew/op (tx of 20)", Col: "embedded"}, "pnew/op (tx of 20) embedded"},
		{bench.Case{Name: "pnew/op (tx of 20)", Col: "remote pipelined"}, "pnew/op (tx of 20) remote pipelined"},
		{bench.Case{Name: "tx20 pnew group-commit", Workers: 4}, "tx20 pnew group-commit"},
	} {
		r := record("E15", tc.c, m)
		if r.Workload != tc.want || r.NsPerOp != 1500 || r.Workers != tc.c.Workers || r.Experiment != "E15" {
			t.Errorf("record(%+v) = %+v, want workload %q", tc.c, r, tc.want)
		}
	}
	buf, _ := json.Marshal(record("E1", bench.Case{Name: "x"}, m))
	if string(buf) != `{"experiment":"E1","workload":"x","ns_per_op":1500}` {
		t.Errorf("empty workers/extra must be omitted: %s", buf)
	}
}

// TestRunExperimentTable runs one cheap experiment through the whole
// command: table on stdout, rows in the -json file.
func TestRunExperimentTable(t *testing.T) {
	file := filepath.Join(t.TempDir(), "rows.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-run", "E1,E9", "-json", file}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"== E1: persistent object creation", "== E9: constraint enforcement",
		"objects=100 ", " create ", " scan ", "pages=", "update with 4 constraints", "wrote 9 rows"} {
		if !strings.Contains(out, want) {
			t.Errorf("table lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "== E2") {
		t.Errorf("-run did not filter:\n%s", out)
	}
	// One E1 size is one printed row carrying both timings.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "objects=100 ") && !(strings.Contains(line, "create") && strings.Contains(line, "scan")) {
			t.Errorf("E1 row not grouped: %q", line)
		}
	}
	buf, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var rows []benchResult
	if err := json.Unmarshal(buf, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 || rows[1].Workload != "objects=100 scan" || rows[1].Extra["pages"] == 0 {
		t.Errorf("rows: %+v", rows)
	}
}
