package server

import (
	"os"
	"strings"
	"testing"

	"ode/internal/obs"
)

// TestServerMetricsDocComplete applies the registry diff of the root
// package's TestObservabilityDocComplete to the server.* family: every
// name Metrics.Attach registers must appear backticked in
// docs/OBSERVABILITY.md.
func TestServerMetricsDocComplete(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatalf("read docs/OBSERVABILITY.md: %v", err)
	}
	text := string(doc)

	reg := obs.NewRegistry()
	(&Metrics{}).Attach(reg)
	names := reg.Names()
	if len(names) == 0 {
		t.Fatal("Metrics.Attach registered nothing")
	}
	for _, name := range names {
		if !strings.HasPrefix(name, "server.") {
			t.Errorf("metric %q: server metrics must live under server.*", name)
		}
		if !strings.Contains(text, "`"+name+"`") {
			t.Errorf("metric %q is not documented in docs/OBSERVABILITY.md", name)
		}
	}
}
