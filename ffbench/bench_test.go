package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/trace"
)

type finalLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runTiny runs the scaled-down workload and decodes the last line.
func runTiny(t *testing.T, name string, traceOn bool) finalLine {
	t.Helper()
	var out, errOut bytes.Buffer
	o := opts{seed: 7, budget: 10 * time.Millisecond, tiny: true}
	if code := execute(workloads[name], o, traceOn, t.TempDir(), &out, &errOut); code != 0 {
		t.Fatalf("%s trace=%v: exit %d\nstdout:\n%s\nstderr:\n%s", name, traceOn, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var f finalLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &f); err != nil {
		t.Fatalf("%s: last line %q: %v", name, lines[len(lines)-1], err)
	}
	return f
}

func TestTinyWorkloadsPrintEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for _, tc := range []struct {
			traced bool
			want   []string
		}{{false, endToEnd}, {true, perLayer}} {
			f := runTiny(t, name, tc.traced)
			if !f.Correct || f.Attempted < 1 || f.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, tc.traced, f.Correct, f.Attempted, f.Failed)
			}
			if len(f.Metrics) != len(tc.want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, tc.traced, len(f.Metrics), len(tc.want))
			}
			for _, m := range tc.want {
				got, ok := f.Metrics[m]
				if !ok || got.Unit != units[m] || math.IsNaN(got.Value) {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, tc.traced, m, got, units[m])
				}
				if !tc.traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, got.Value)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json in
// step with the metrics and workloads this program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	for _, set := range []struct {
		listed []struct{ Name, Unit string }
		want   []string
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(set.listed) != len(set.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, program prints %d", len(set.listed), len(set.want))
			continue
		}
		for i, m := range set.listed {
			if m.Name != set.want[i] || m.Unit != units[m.Name] {
				t.Errorf("BENCHMARK.json metric %d = %s (%s), program prints %s (%s)",
					i, m.Name, m.Unit, set.want[i], units[set.want[i]])
			}
		}
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "paper", "-seed", "0"},
		{"-workload", "paper", "-trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a failure and no output", args, code, out.String())
		}
	}
}

func tinyFleet(t *testing.T, shards int) scenario.FleetResult {
	t.Helper()
	cfg := provisionedFleet(opts{tiny: true}).cfg
	cfg.Seed, cfg.Shards, cfg.Workers = 11, shards, shards
	return scenario.RunFleet(cfg)
}

func TestFleetChecksCatchCorruption(t *testing.T) {
	a, b := tinyFleet(t, 1), tinyFleet(t, 2)
	if err := checkFleet(a); err != nil {
		t.Fatalf("clean result: %v", err)
	}
	if err := checkShardInvariance(a, b); err != nil {
		t.Fatalf("clean pair: %v", err)
	}
	for name, corrupt := range map[string]func(r *scenario.FleetResult){
		"offloads": func(r *scenario.FleetResult) { r.OffloadOK = r.OffloadAttempts + 1 },
		"server":   func(r *scenario.FleetResult) { r.Server.Completed = r.Server.Submitted + 1 },
		"invariant": func(r *scenario.FleetResult) {
			r.InvariantErr = errors.New("injected")
		},
	} {
		r := a
		corrupt(&r)
		if checkFleet(r) == nil {
			t.Errorf("checkFleet missed corrupted %s", name)
		}
	}
	b.StateHash++
	if checkShardInvariance(a, b) == nil {
		t.Error("checkShardInvariance missed a hash mismatch")
	}
}

func TestPaperChecksCatchCorruption(t *testing.T) {
	c := paperBlock(5, true)[0]
	rec := trace.NewRecorder()
	cfg := c.cfg
	cfg.OnOffload = rec.Hook()
	r := scenario.Run(cfg)
	events := rec.Events()
	if err := checkPaperRun(r, events); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("tiny run offloaded nothing")
	}
	if checkPaperRun(r, events[1:]) == nil {
		t.Error("checkPaperRun missed a dropped offload event")
	}
	bad := *r
	bad.Device.OffloadOK = bad.Device.OffloadAttempts + 1
	if checkPaperRun(&bad, events) == nil {
		t.Error("checkPaperRun missed broken offload conservation")
	}
	bad = *r
	bad.Server.Rejected = bad.Server.Submitted + 1
	if checkPaperRun(&bad, events) == nil {
		t.Error("checkPaperRun missed broken server conservation")
	}

	d := runDigest(r, events)
	if err := checkRepeat(d, runDigest(r, events)); err != nil {
		t.Fatalf("same run: %v", err)
	}
	bad = *r
	bad.P = append([]float64(nil), r.P...)
	bad.P[len(bad.P)/2] += 1
	if checkRepeat(d, runDigest(&bad, events)) == nil {
		t.Error("checkRepeat missed a changed P trace")
	}
}

func TestLiveChecksCatchCorruption(t *testing.T) {
	spec := liveSizes(opts{tiny: true})
	spec.rates = []float64{200}
	payload := make([]byte, 1024)
	p, err := runLivePass(spec, 3, payload, nil, newMemWatch())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkLiveReplies(p); err != nil {
		t.Fatalf("clean pass: %v", err)
	}
	p.mismatch = 1
	if checkLiveReplies(p) == nil {
		t.Error("checkLiveReplies missed an unmatched reply")
	}
	p.mismatch = 0
	var f *liveFrame
	for i := range p.frames {
		if p.frames[i].state.Load() == frameAnswered && !p.frames[i].rejected {
			f = &p.frames[i]
			break
		}
	}
	if f == nil {
		t.Fatal("no frame was answered")
	}
	f.label++
	if checkLiveReplies(p) == nil {
		t.Error("checkLiveReplies missed a wrong label")
	}
	f.label--
	p.stats.Completed = p.stats.Submitted + 1
	if checkLiveReplies(p) == nil {
		t.Error("checkLiveReplies missed broken server conservation")
	}
	p.stats.Completed, p.stats.Rejected = 0, 0
	p.stats.Submitted = 0
	if checkLiveReplies(p) == nil {
		t.Error("checkLiveReplies missed more replies than the server resolved")
	}
}

func TestLiveOutcome(t *testing.T) {
	p := &livePass{spec: liveSpec{limit: 250 * time.Millisecond}, wall: 2 * time.Second}
	mk := func(state uint32, reply time.Duration, rejected bool) *liveFrame {
		f := &liveFrame{due: 100 * time.Millisecond, reply: reply, rejected: rejected}
		f.state.Store(state)
		return f
	}
	for _, tc := range []struct {
		f       *liveFrame
		kind    frameKind
		overLim bool
	}{
		{mk(frameAnswered, 105*time.Millisecond, false), frameOK, false},
		{mk(frameAnswered, 105*time.Millisecond, true), frameRejected, true},
		{mk(frameAnswered, 400*time.Millisecond, false), frameLate, true},
		{mk(frameSendErr, 0, false), frameSendError, true},
		{mk(frameSent, 0, false), frameLost, true},
	} {
		kind, lat := p.outcome(tc.f)
		if kind != tc.kind || (lat > p.spec.limit) != tc.overLim {
			t.Errorf("outcome = %v, %v; want kind %v, over limit %v", kind, lat, tc.kind, tc.overLim)
		}
	}
}

func TestFoldTop(t *testing.T) {
	text := `File: ffbench
Type: cpu
Showing nodes accounting for 1s, 100% of 1s total
      flat  flat%   sum%        cum   cum%
     400ms 40.00% 40.00%      400ms 40.00%  repro/internal/simtime.(*Scheduler).Pop
     100ms 10.00% 50.00%      100ms 10.00%  repro/internal/simtime.(*Sharded).mergeInject
     200ms 20.00% 70.00%      200ms 20.00%  runtime.mallocgc
     100ms 10.00% 80.00%      100ms 10.00%  repro/internal/rng.(*Stream).Float64 (inline)
     200ms 20.00%   100%      200ms 20.00%  syscall.Syscall6
`
	got, err := foldTop(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"simtime": 0.4, "merge": 0.1, "runtime": 0.2, "rng": 0.1}
	for l, v := range want {
		if math.Abs(got[l]-v) > 1e-9 {
			t.Errorf("%s share = %v, want %v", l, got[l], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("shares %v, want only %v", got, want)
	}
	if _, err := foldTop("no table here"); err == nil {
		t.Error("foldTop accepted text without a table")
	}
}

func TestHostScaling(t *testing.T) {
	k, err := newRefKernel()
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(3, k.run); a != 0 {
		t.Errorf("reference kernel allocates %v times per call", a)
	}
	k.measure()
	if len(k.samples) != refTimed || k.scale() <= 0 {
		t.Fatalf("after one measurement: %d samples, scale %v", len(k.samples), k.scale())
	}
	for _, tc := range []struct {
		k     *refKernel
		scale float64
	}{{k, k.scale()}, {nil, 1}} {
		rep := &report{metrics: metricSet{}}
		setHost(rep, tc.k, 2, []float64{1e-3, 3e-3, 2e-3})
		m := rep.metrics
		if m["host.cpu_us_per_frame_raw"].Value != 2 || m["host.setup_s_raw"].Value != 2e-3 {
			t.Errorf("raw figures %v, %v; want 2, 0.002", m["host.cpu_us_per_frame_raw"].Value, m["host.setup_s_raw"].Value)
		}
		if got := m["cpu_us_per_frame"].Value; math.Abs(got-2*tc.scale) > 1e-12 {
			t.Errorf("cpu_us_per_frame = %v, want %v", got, 2*tc.scale)
		}
		if got := m["setup_s"].Value; math.Abs(got-2e-3*tc.scale) > 1e-15 {
			t.Errorf("setup_s = %v, want %v", got, 2e-3*tc.scale)
		}
	}
}
