// Command benchmark is the repository's one benchmark: four workloads
// against the real gatewayd binary for the end-to-end metrics, and the
// same stack assembled in-process, with spans recorded around the calls
// into each layer, for the per-layer metrics. README.md defines every
// workload and metric; BENCHMARK.json at the repository root names them.
//
//	bash benchmark/run.sh --workload big_report --seed 1 --seconds 26 --trace 0
//
// run.sh builds gatewayd and this program and runs it from the
// repository root. The last line of standard output is the result as
// one JSON object; a table for people goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// config is what the command line asks for.
type config struct {
	seed     int64
	seconds  float64
	gatewayd string
	dir      string // the benchmark's directory
}

func (c config) macroDir(w *workload) string { return filepath.Join(c.dir, "macros", w.macros) }
func (c config) outPath(name string) string  { return filepath.Join(c.dir, "out", name) }

// spec is the part of BENCHMARK.json the program holds itself to: it
// must print exactly the metrics declared there, in their units.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
}

type metricSpec struct{ Name, Unit string }

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result collects one run's outcome.
type result struct {
	workload  string
	declared  []metricSpec
	attempted int
	failed    int
	problems  []error // failed operations (the first few) and failed self-checks
	metrics   map[string]metricValue
	perRound  map[string][]float64
	notes     []string
}

func newResult(w *workload) *result {
	return &result{workload: w.name, metrics: map[string]metricValue{}, perRound: map[string][]float64{}}
}

func (r *result) add(p phaseResult) {
	r.attempted += p.requests
	r.failed += len(p.failures)
	for _, err := range p.failures {
		if len(r.problems) < 10 {
			r.problems = append(r.problems, err)
		}
	}
}

// fail records a failed self-check: the run is not correct.
func (r *result) fail(err error) {
	if len(r.problems) < 10 {
		r.problems = append(r.problems, err)
	}
	r.failed = max(r.failed, 1)
}

func (r *result) metric(name string, value float64, rounds []float64) {
	r.metrics[name] = metricValue{Value: value}
	if rounds != nil {
		r.perRound[name] = rounds
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// finish gives every metric its declared unit and checks that the run
// produced the declared metrics and no others.
func (r *result) finish(declared []metricSpec) error {
	for _, d := range declared {
		m, ok := r.metrics[d.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json declares %s, which the run did not measure", d.Name)
		}
		m.Unit = d.Unit
		r.metrics[d.Name] = m
	}
	if len(r.metrics) != len(declared) {
		return fmt.Errorf("the run measured %d metrics, BENCHMARK.json declares %d", len(r.metrics), len(declared))
	}
	r.declared = declared
	return nil
}

// report prints the table for people and, last, the one JSON object.
func (r *result) report() error {
	fmt.Fprintf(os.Stderr, "\n%s: %d attempted, %d failed\n", r.workload, r.attempted, r.failed)
	for _, d := range r.declared {
		m := r.metrics[d.Name]
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %-6s", d.Name, m.Value, m.Unit)
		if rounds := r.perRound[d.Name]; rounds != nil {
			fmt.Fprintf(os.Stderr, " rounds %.4f, quartile spread %.1f %%", rounds, 100*iqrShare(rounds))
		}
		fmt.Fprintln(os.Stderr)
	}
	for _, n := range r.notes {
		fmt.Fprintf(os.Stderr, "  note: %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "  FAILED: %v\n", p)
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	})
}

// fingerprint says what the numbers were measured on.
func fingerprint() string {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	rev := "not a git checkout"
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		rev = strings.TrimSpace(string(head))
		if ref, ok := strings.CutPrefix(rev, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
				rev = strings.TrimSpace(string(b))
			}
		}
	}
	return fmt.Sprintf("nproc %d, %s, kernel %s, git %s", runtime.NumCPU(), runtime.Version(), strings.TrimSpace(string(kernel)), rev)
}

func run() error {
	var cfg config
	var name string
	var trace int
	flag.StringVar(&name, "workload", "", "workload to run, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the request sequences")
	flag.Float64Var(&cfg.seconds, "seconds", 26, "how long the rounds measure, in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics against the gatewayd binary; 1: per-layer metrics on the in-process stack")
	flag.StringVar(&cfg.gatewayd, "gatewayd", ".bench_build/gatewayd", "the gatewayd binary under test")
	flag.StringVar(&cfg.dir, "dir", "benchmark", "the benchmark's directory, which holds macros/ and receives out/")
	flag.Parse()

	decl, err := readSpec("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var todo []*workload
	for _, d := range decl.Workloads {
		w := workloadByName(d.Name)
		if w == nil {
			return fmt.Errorf("BENCHMARK.json names the workload %q, which the benchmark does not have", d.Name)
		}
		if name == "all" || name == d.Name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		return fmt.Errorf("--workload %q: want all or a workload of BENCHMARK.json", name)
	}
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("--seconds wants at least 1, --trace 0 or 1")
	}
	if err := os.MkdirAll(cfg.outPath(""), 0o755); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchmark: seed %d, %g s, %s\n", cfg.seed, cfg.seconds, fingerprint())

	correct := true
	for _, w := range todo {
		var res *result
		declared := decl.EndToEnd
		if trace == 1 {
			declared = decl.PerLayer
			res, err = runTraced(w, cfg)
		} else {
			res, err = runEndToEnd(w, cfg)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := res.finish(declared); err != nil {
			return err
		}
		if err := res.report(); err != nil {
			return err
		}
		correct = correct && res.failed == 0
	}
	if !correct {
		return fmt.Errorf("incorrect: see the FAILED lines above")
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
