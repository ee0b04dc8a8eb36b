package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into the program, recorded from outside.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced runs skip it.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	next  uint64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// open reserves an id for a span whose end is not known yet.
func (r *recorder) open() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// close records the span reserved by open, ending now.
func (r *recorder) close(id uint64, name string, parent uint64, start time.Time) {
	if r == nil {
		return
	}
	r.put(span{ID: id, Parent: parent, Name: name, Start: int64(start.Sub(r.epoch)), End: int64(time.Since(r.epoch))})
}

// add records a finished span and returns its id.
func (r *recorder) add(name string, parent uint64, start, end time.Time) uint64 {
	if r == nil {
		return 0
	}
	id := r.open()
	r.put(span{ID: id, Parent: parent, Name: name, Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
	return id
}

func (r *recorder) put(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// durations returns the sorted durations of every span with the given
// name, in milliseconds.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traced runs the workload twice for half the budget each: untraced,
// then with spans and a CPU profile. The per-layer metrics come from
// the second half; trace.overhead_pct compares the halves' CPU cost
// per frame.
func traced(w workload, o opts, outDir string) (*report, error) {
	half := o
	half.budget = o.budget / 2
	plain, err := w.run(half)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	half.rec = newRecorder()
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	rep, err := w.run(half)
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	shares, err := foldProfile(prof.Name())
	if err != nil {
		return nil, err
	}
	ms := rep.metrics
	for _, l := range layers {
		name := l + ".self_share"
		if l == "merge" {
			name = "simtime.merge_share"
		}
		ms.set(name, shares[l])
	}
	rec := half.rec
	if t := rec.durations("scenario.StepTick"); len(t) > 0 {
		ms.set("scenario.tick_ms_p50", quantile(t, 0.5))
		ms.set("scenario.tick_ms_max", t[len(t)-1])
	}
	if f := rec.durations("scenario.Finish"); len(f) > 0 {
		ms.set("scenario.finish_ms", quantile(f, 0.5))
	}
	if r := rec.durations("scenario.Run"); len(r) > 0 {
		ms.set("scenario.run_ms_p50", quantile(r, 0.5))
	}
	if s := rec.durations("loadgen.Send"); len(s) > 0 {
		ms.set("loadgen.send_us_p50", quantile(s, 0.5)*1e3)
		ms.set("loadgen.send_us_p99", quantile(s, 0.99)*1e3)
	}
	ms.set("trace.spans", float64(len(rec.spans)))
	if base := plain.metrics["cpu_us_per_frame"].Value; base > 0 {
		ms.set("trace.overhead_pct", (ms["cpu_us_per_frame"].Value/base-1)*100)
	}
	if err := rec.writeJSONL(base + ".spans.jsonl"); err != nil {
		return nil, err
	}
	rep.checks = append(plain.checks, rep.checks...)
	rep.notes = append(plain.notes, rep.notes...)
	rep.attempted += plain.attempted
	rep.failed += plain.failed
	return rep, nil
}

// layers are the self-time buckets of the CPU profile; merge is the
// sharded engine's barrier, merge and inject code, split out of
// simtime.
var layers = []string{"simtime", "merge", "scenario", "rng", "frame", "simnet", "server",
	"controller", "device", "runtime", "loadgen", "netproto", "realnet"}

// layerOf maps a profiled function name to its layer, or "".
func layerOf(fn string) string {
	const pkg = "repro/internal/"
	if strings.HasPrefix(fn, "runtime.") {
		return "runtime"
	}
	if !strings.HasPrefix(fn, pkg) {
		return ""
	}
	rest := fn[len(pkg):]
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return ""
	}
	l := rest[:dot]
	if l == "simtime" {
		sym := rest[dot+1:]
		if strings.HasPrefix(sym, "(*Sharded).") || strings.HasPrefix(sym, "trimScratch") ||
			strings.HasPrefix(sym, "(*Scheduler).injectSorted") {
			return "merge"
		}
	}
	for _, k := range layers {
		if k == l {
			return l
		}
	}
	return ""
}

// foldProfile folds a CPU profile's flat (self) time by layer, as a
// share of all samples, using `go tool pprof -top`.
func foldProfile(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTop(string(out))
}

// foldTop parses `pprof -top` text: after the "flat  flat%" header,
// each row is flat, flat%, sum%, cum, cum%, function.
func foldTop(text string) (map[string]float64, error) {
	shares := map[string]float64{}
	var total time.Duration
	byLayer := map[string]time.Duration{}
	inRows := false
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if !inRows {
			inRows = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", line, err)
		}
		total += d
		if l := layerOf(f[5]); l != "" {
			byLayer[l] += d
		}
	}
	if !inRows {
		return nil, fmt.Errorf("pprof output has no -top table")
	}
	if total == 0 {
		return shares, nil
	}
	for l, d := range byLayer {
		shares[l] = d.Seconds() / total.Seconds()
	}
	return shares, nil
}
