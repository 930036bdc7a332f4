package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tiny returns a config small enough for unit-test latency.
func tiny() Config { return Config{Rows: 30, Requests: 5, Seed: 1} }

func TestE1ConcurrentClients(t *testing.T) {
	var buf bytes.Buffer
	if err := E1(&buf, Config{Rows: 30, Requests: 16, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"clients", "req/s", "16"} {
		if !strings.Contains(out, want) {
			t.Errorf("E1 output missing %q:\n%s", want, out)
		}
	}
}

func TestE2Figure2Golden(t *testing.T) {
	var buf bytes.Buffer
	if err := E2(&buf, tiny()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "MATCH") {
		t.Fatalf("E2 did not verify against golden:\n%s", buf.String())
	}
}

func TestE3Figure3Variables(t *testing.T) {
	var buf bytes.Buffer
	if err := E3(&buf, tiny()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "MATCH") ||
		!strings.Contains(out, "DBFIELD=title&DBFIELD=desc") {
		t.Fatalf("E3 output:\n%s", out)
	}
}

func TestE4CGIFlowsInProcess(t *testing.T) {
	var buf bytes.Buffer
	if err := E4(&buf, tiny()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "identical pages") {
		t.Fatalf("E4 output:\n%s", buf.String())
	}
}

func TestE4SubprocessFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess flow builds a binary; skipped in -short")
	}
	bin, err := BuildDB2WWW(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := tiny()
	cfg.Requests = 10
	cfg.DB2WWWBinary = bin
	if err := E4(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fork/exec CGI subprocess") ||
		!strings.Contains(out, "process-model overhead") {
		t.Fatalf("E4 subprocess output:\n%s", out)
	}
}

func TestE5MacroPipeline(t *testing.T) {
	var buf bytes.Buffer
	if err := E5(&buf, tiny()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The taint analyzer deliberately warns about the Appendix A DEFINE
	// chains; what must hold is that nothing reaches error severity.
	if !strings.Contains(out, "0 errors") {
		t.Fatalf("urlquery.d2w must lint without errors:\n%s", out)
	}
	if !strings.Contains(out, "SELECT url") {
		t.Fatalf("SQL extraction missing:\n%s", out)
	}
}

func TestE6RuntimeModes(t *testing.T) {
	var buf bytes.Buffer
	if err := E6(&buf, tiny()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"One Two"`) || !strings.Contains(out, `"One Two Three"`) {
		t.Fatalf("E6 output:\n%s", out)
	}
}

func TestE7AppendixAGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := E7(&buf, tiny()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "MATCH") != 2 {
		t.Fatalf("E7 must match both goldens:\n%s", out)
	}
}

func TestE8WhereClause(t *testing.T) {
	var buf bytes.Buffer
	if err := E8(&buf, tiny()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "MATCH") {
		t.Fatalf("E8 output:\n%s", buf.String())
	}
}

func TestE9TransactionModes(t *testing.T) {
	var buf bytes.Buffer
	if err := E9(&buf, tiny()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "auto-commit") || !strings.Contains(out, "single-txn") {
		t.Fatalf("E9 output:\n%s", out)
	}
}

func TestE10Baselines(t *testing.T) {
	var buf bytes.Buffer
	if err := E10(&buf, tiny()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, sys := range []string{"DB2WWW", "GSQL", "WDB", "raw CGI"} {
		if !strings.Contains(out, sys) {
			t.Errorf("E10 missing system %s:\n%s", sys, out)
		}
	}
	if !strings.Contains(out, "capability matrix") {
		t.Errorf("E10 missing capability matrix")
	}
}

func TestE11Restyle(t *testing.T) {
	var buf bytes.Buffer
	if err := E11(&buf, tiny()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, style := range []string{"default-table", "bullet-list", "html3-table"} {
		if !strings.Contains(out, style) {
			t.Errorf("E11 missing style %s:\n%s", style, out)
		}
	}
}

func TestE12ListScaling(t *testing.T) {
	var buf bytes.Buffer
	if err := E12(&buf, tiny()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "256") {
		t.Fatalf("E12 output:\n%s", buf.String())
	}
}

func TestAblations(t *testing.T) {
	cfg := Config{Rows: 20, Requests: 3, Seed: 1}
	var buf bytes.Buffer
	if err := A1(&buf, cfg); err != nil {
		t.Fatalf("A1: %v", err)
	}
	if err := A2(&buf, cfg); err != nil {
		t.Fatalf("A2: %v", err)
	}
	if err := A3(&buf, cfg); err != nil {
		t.Fatalf("A3: %v", err)
	}
	if err := A5(&buf, cfg); err != nil {
		t.Fatalf("A5: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"lazy", "cache", "default table", "index scan"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}

func TestGoldenFilesExist(t *testing.T) {
	for _, name := range []string{"figure2.html", "figure7_input.html", "figure8_report.html"} {
		p := filepath.Join(RepoRoot(), "testdata", "golden", name)
		if _, err := os.Stat(p); err != nil {
			t.Errorf("golden file missing: %s (generate with benchrunner -write-golden)", p)
		}
	}
}

func TestLatencyHelpers(t *testing.T) {
	l := &Latencies{}
	for i := 1; i <= 100; i++ {
		l.Add(time.Duration(i) * time.Millisecond)
	}
	if l.N() != 100 {
		t.Fatalf("N = %d", l.N())
	}
	if m := l.Mean(); m != 50500*time.Microsecond {
		t.Fatalf("mean = %v", m)
	}
	if p := l.Percentile(95); p != 95*time.Millisecond {
		t.Fatalf("p95 = %v", p)
	}
}
