// Command ffbench is the repository's end-to-end benchmark. It drives
// the public entry points of the simulator (scenario.Run,
// scenario.NewFleet/StepTick/Finish) and of the live TCP plane
// (realnet.NewServer, loadgen.NewMux/Send), times them from outside,
// checks that their outputs are correct and prints every metric by
// name with its unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the
// run is split into an untraced half and a traced, CPU-profiled half
// that yields the per-layer set. See README.md for the metric
// definitions and BENCHMARK.json at the repository root for the
// workload list and the regression bounds.
//
//	go build -o ffbench . && ./ffbench -workload paper -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// opts is what one benchmark run needs besides its workload.
type opts struct {
	seed   uint64
	budget time.Duration
	// tiny selects the scaled-down sizes the benchmark's own tests
	// use; the measured sizes are the defaults.
	tiny bool
	// rec collects spans; nil in untraced runs.
	rec *recorder
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ffbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed; every input is derived from it")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	traceOn := fs.Int("trace", 0, "1 runs the traced per-layer variant")
	outDir := fs.String("out", ".bench_out", "directory for the traced run's spans and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seed == 0 || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "ffbench: need -workload {%s}, -seed > 0, -seconds > 0, -trace 0|1\n",
			strings.Join(workloadNames(), ","))
		return 2
	}
	o := opts{seed: *seed, budget: time.Duration(*seconds * float64(time.Second))}
	return execute(w, o, *traceOn == 1, *outDir, stdout, stderr)
}

// execute runs one workload and prints its diagnostic lines and its
// result line.
func execute(w workload, o opts, traceOn bool, outDir string, stdout, stderr io.Writer) int {
	emit(stdout, "env", map[string]any{
		"workload": w.name, "seed": o.seed, "seconds": o.budget.Seconds(), "trace": traceOn,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	})
	var rep *report
	var err error
	if traceOn {
		rep, err = traced(w, o, outDir)
	} else {
		rep, err = w.run(o)
	}
	if err != nil {
		fmt.Fprintf(stderr, "ffbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, n := range rep.notes {
		emit(stdout, n.kind, n.data)
	}
	for _, c := range rep.checks {
		emit(stdout, "check", map[string]any{"name": c.name, "ok": c.err == nil, "err": errString(c.err)})
	}
	want := endToEnd
	if traceOn {
		want = perLayer
	}
	final := map[string]any{
		"correct":   rep.correct(),
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   rep.metrics.pick(want),
	}
	b, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "ffbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !rep.correct() {
		return 1
	}
	return 0
}

// emit prints one diagnostic JSON line, tagged with its kind.
func emit(w io.Writer, kind string, data any) {
	b, err := json.Marshal(map[string]any{kind: data})
	if err != nil {
		b = []byte(fmt.Sprintf(`{"%s": %q}`, kind, err.Error()))
	}
	fmt.Fprintln(w, string(b))
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// workload is one named input set.
type workload struct {
	name string
	run  func(o opts) (*report, error)
}

var workloads = map[string]workload{
	"paper":             {"paper", runPaper},
	"fleet_overload":    {"fleet_overload", func(o opts) (*report, error) { return runFleet(o, overloadFleet(o)) }},
	"fleet_provisioned": {"fleet_provisioned", func(o opts) (*report, error) { return runFleet(o, provisionedFleet(o)) }},
	"live":              {"live", runLive},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report is what a workload run returns: metrics of both sets (the
// caller prints the requested one), correctness checks and
// diagnostic lines.
type report struct {
	metrics   metricSet
	checks    []check
	notes     []note
	attempted int
	failed    int
}

type check struct {
	name string
	err  error
}

type note struct {
	kind string
	data any
}

func (r *report) check(name string, err error) { r.checks = append(r.checks, check{name, err}) }

func (r *report) note(kind string, data any) { r.notes = append(r.notes, note{kind, data}) }

func (r *report) correct() bool {
	if len(r.checks) == 0 {
		return false
	}
	for _, c := range r.checks {
		if c.err != nil {
			return false
		}
	}
	return true
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

// set records a metric, taking its unit from the registry below.
func (m metricSet) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("ffbench: unregistered metric " + name)
	}
	m[name] = metric{Value: v, Unit: u}
}

// pick returns the named subset; a metric the workload has no
// counterpart for reads 0 (only per-layer metrics may).
func (m metricSet) pick(names []string) metricSet {
	out := make(metricSet, len(names))
	for _, n := range names {
		if v, ok := m[n]; ok {
			out[n] = v
		} else {
			out[n] = metric{Value: 0, Unit: units[n]}
		}
	}
	return out
}
