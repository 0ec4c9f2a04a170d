// Command perfbench is the repository benchmark. It runs one of three
// workloads — offline-catalog (cold model builds), online-grid (in-process
// sessions) and serve-open (sessions through a dmi-serve daemon under open
// load) — checks the outputs against the repository's byte-identity
// oracles, and prints one JSON result line. Real-cost metrics and the
// paper's simulated metrics are reported side by side; every simulated
// metric name starts with "sim_". With -trace 1 it instead measures each
// layer from outside by timing calls into the layer's public functions,
// writes a trace file and a per-layer summary, and prints the per-layer
// metrics. See README.md for the metric definitions.
//
// Run it through run.sh, which builds this program and the daemon from the
// checkout:
//
//	bash perfbench/run.sh --workload online-grid --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root; scratch and trace files live under root/.bench_build
	serveBin string // dmi-serve binary built from the tree under test
	rate     float64
	workers  int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is a result's metric set, keyed by name.
type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// workload runs one named workload, untraced or traced.
type workload func(o options, log io.Writer) (result, error)

var workloads = map[string]workload{
	"offline-catalog": runOffline,
	"online-grid":     runOnline,
	"serve-open":      runServe,
}

// endToEnd lists the metrics every untraced run prints, with their units.
var endToEnd = []metricSpec{
	{"setup_s", "s"}, {"model_s", "s"}, {"sessions_per_s", "1/s"},
	{"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"}, {"ok_frac", "ratio"},
	{"peak_rss_mb", "MB"}, {"sim_model_h", "sim_h"}, {"sim_rip_clicks", "count"},
	{"sim_core_tokens", "tokens"}, {"sim_dmi_sr", "ratio"}, {"sim_gui_sr", "ratio"},
	{"sim_dmi_calls", "calls"}, {"sim_oneshot_frac", "ratio"},
}

type metricSpec struct{ name, unit string }

func main() {
	if len(os.Args) == 3 && os.Args[1] == prepareFlag {
		if err := prepareInto(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr))
}

func mainCode(args []string, stdout, stderr io.Writer) int {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: offline-catalog, online-grid or serve-open")
	fs.Int64Var(&o.seed, "seed", 1, "input seed (cell order and mix, arrival times, app order)")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced per-layer run")
	fs.StringVar(&o.serveBin, "serve-bin", "", "dmi-serve binary built from the tree under test")
	fs.Float64Var(&o.rate, "serve-rate", 90, "serve-open Poisson arrival rate, cells/s")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	// The benchmark runs from the repository root, with one worker or
	// connection per CPU.
	o.root, o.workers = ".", runtime.NumCPU()
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || o.rate <= 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q or bad -seconds/-serve-rate\n", o.workload)
		return 2
	}
	res, err := run(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := checkMetricSet(res.Metrics, o.trace); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// checkMetricSet insists that a run reports exactly the metric list of its
// mode, each a finite number.
func checkMetricSet(m metrics, traced bool) error {
	want := map[string]string{}
	if traced {
		for _, l := range perLayerNames() {
			want[l] = ""
		}
	} else {
		for _, e := range endToEnd {
			want[e.name] = e.unit
		}
	}
	var problems []string
	for name, unit := range want {
		got, ok := m[name]
		switch {
		case !ok:
			problems = append(problems, "missing "+name)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			problems = append(problems, "non-finite "+name)
		case unit != "" && got.Unit != unit:
			problems = append(problems, fmt.Sprintf("%s unit %q, want %q", name, got.Unit, unit))
		}
	}
	for name := range m {
		if _, ok := want[name]; !ok {
			problems = append(problems, "unexpected "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return errors.New("metric set: " + fmt.Sprint(problems))
	}
	return nil
}

// workDir makes a fresh scratch directory for one run under the checkout.
func workDir(o options) (string, error) {
	base := filepath.Join(o.root, ".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, o.workload+"-")
}

// traceDir is where traced runs write their files.
func traceDir(o options) string { return filepath.Join(o.root, ".bench_build", "trace") }

func newRand(o options, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(o.seed*1000003 + stream))
}
