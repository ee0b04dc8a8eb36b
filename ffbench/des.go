package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/models"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/trace"
)

// memWatch tracks allocation and GC totals over a run. Between
// timed calls it samples runtime/metrics, which does not stop the
// world: the heap in use (object bytes plus span fragmentation, as
// MemStats.HeapInuse counts it) and the bytes allocated by each unit
// of work (a seed block, a fleet run, a live pass).
type memWatch struct {
	start, last runtime.MemStats
	s           []metrics.Sample
	heap        []float64 // heap-in-use samples, bytes
	unitStart   uint64
	units       []float64 // MB allocated per unit
}

func newMemWatch() *memWatch {
	m := &memWatch{
		s: []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		},
		// Room for a run's samples, so that recording one allocates
		// nothing inside a unit of work.
		heap: make([]float64, 0, 1<<14),
	}
	runtime.ReadMemStats(&m.start)
	m.last = m.start
	m.sample()
	return m
}

// sample records the heap in use and returns the bytes allocated so
// far.
func (m *memWatch) sample() uint64 {
	metrics.Read(m.s)
	m.heap = append(m.heap, float64(m.s[1].Value.Uint64()+m.s[2].Value.Uint64()))
	return m.s[0].Value.Uint64()
}

func (m *memWatch) beginUnit() { m.unitStart = m.sample() }

func (m *memWatch) endUnit() {
	m.units = append(m.units, float64(m.sample()-m.unitStart)/1e6)
}

// heapP90MB is the p90 of the heap-in-use samples, not their maximum:
// where a sample falls in the GC cycle is chance, and one unlucky
// sample would set the maximum.
func (m *memWatch) heapP90MB() float64 {
	sort.Float64s(m.heap)
	return quantile(m.heap, 0.9) / 1e6
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// finish takes the closing GC totals.
func (m *memWatch) finish() {
	m.sample()
	runtime.ReadMemStats(&m.last)
}

// allocMB is the mean allocation per unit of work. A fleet run's
// allocation is a step function of its seed (the offload record pool
// grows by doubling), so the mean over a run's seeds is steadier than
// their median.
func (m *memWatch) allocMB() float64 { return mean(m.units) }

// setGC records the GC counters accumulated since the watch started.
func (m *memWatch) setGC(ms metricSet) {
	ms.set("gc.cycles", float64(m.last.NumGC-m.start.NumGC))
	ms.set("gc.pause_ms", float64(m.last.PauseTotalNs-m.start.PauseTotalNs)/1e6)
}

// --- paper -----------------------------------------------------------

// paperRefEvery is how many seed blocks run between reference kernel
// measurements; each one forces a collection outside the timed calls.
const paperRefEvery = 8

// paperFS is the paper's source frame rate, which every experiment
// config keeps at its default.
const paperFS = 30

// paperCase is one scenario.Run of a seed block.
type paperCase struct {
	name    string
	cfg     scenario.Config
	devices int
}

// paperBlock builds one seed block: the Table V network, Table VI
// server-load and combined experiments for every policy, at the
// paper's scale.
func paperBlock(seed uint64, tiny bool) []paperCase {
	var cases []paperCase
	for _, pol := range scenario.PolicyOrder() {
		f := scenario.AllPolicies()[pol]
		for _, e := range []struct {
			name string
			cfg  scenario.Config
		}{
			{"network", scenario.NetworkExperiment(f)},
			{"serverload", scenario.ServerLoadExperiment(f)},
			{"combined", scenario.CombinedExperiment(f)},
		} {
			c := e.cfg
			c.Seed = seed
			c.NoTrace = false
			if tiny {
				c.FrameLimit = 300
			}
			n := len(c.Devices)
			if n == 0 {
				n = 3 // scenario.Config's default trio
			}
			cases = append(cases, paperCase{name: pol + "/" + e.name, cfg: c, devices: n})
		}
	}
	return cases
}

// runDigest folds a run's observable output — summary counters, the
// per-tick trace columns and the offload event log — into one hash.
func runDigest(r *scenario.Result, events []trace.Event) uint64 {
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(r.Ticks))
	put(r.EventsFired)
	d := r.Device
	for _, v := range []uint64{d.Captured, d.OffloadAttempts, d.OffloadOK, d.OffloadTimedOut,
		d.OffloadRejected, d.LocalDone, d.LocalDropped, uint64(d.LocalBusy)} {
		put(v)
	}
	putServer(put, r.Server)
	for _, col := range [][]float64{r.P, r.Po, r.TRate, r.TotalP, r.ServerUtil} {
		for _, v := range col {
			put(math.Float64bits(v))
		}
	}
	for _, e := range events {
		put(e.FrameID)
		put(math.Float64bits(e.Latency))
		h.Write([]byte(e.Status))
	}
	return h.Sum64()
}

func putServer(put func(uint64), s server.Stats) {
	for _, v := range []uint64{s.Submitted, s.Completed, s.Rejected, s.Dropped, s.Batches,
		s.BatchSizeSum, uint64(s.BusyTime)} {
		put(v)
	}
}

// serverSum accumulates server counters over runs.
type serverSum struct {
	server.Stats
	simTime time.Duration
}

func (s *serverSum) add(st server.Stats, sim time.Duration) {
	s.Submitted += st.Submitted
	s.Completed += st.Completed
	s.Rejected += st.Rejected
	s.Dropped += st.Dropped
	s.Batches += st.Batches
	s.BatchSizeSum += st.BatchSizeSum
	s.BusyTime += st.BusyTime
	s.simTime += sim
}

func (s *serverSum) set(ms metricSet) {
	ms.set("server.submitted", float64(s.Submitted))
	ms.set("server.completed", float64(s.Completed))
	ms.set("server.rejected", float64(s.Rejected))
	ms.set("server.batches", float64(s.Batches))
	ms.set("server.mean_batch", s.MeanBatchSize())
	if s.simTime > 0 {
		ms.set("server.util", s.BusyTime.Seconds()/s.simTime.Seconds())
	}
}

// checkServer is the server-side conservation law: every submission
// is resolved at most once.
func checkServer(s server.Stats) error {
	if s.Completed+s.Rejected+s.Dropped > s.Submitted {
		return fmt.Errorf("server completed %d + rejected %d + dropped %d > submitted %d",
			s.Completed, s.Rejected, s.Dropped, s.Submitted)
	}
	return nil
}

// checkOffloads is the device-side conservation law: an offload
// resolves as OK, timed out or rejected at most once.
func checkOffloads(attempts, ok, timedOut, rejected uint64) error {
	if ok+timedOut+rejected > attempts {
		return fmt.Errorf("offloads ok %d + timed out %d + rejected %d > attempts %d",
			ok, timedOut, rejected, attempts)
	}
	return nil
}

// checkPaperRun applies the conservation laws to one run and ties the
// offload event log to the device counters it summarizes.
func checkPaperRun(r *scenario.Result, events []trace.Event) error {
	d := r.Device
	if err := checkOffloads(d.OffloadAttempts, d.OffloadOK, d.OffloadTimedOut, d.OffloadRejected); err != nil {
		return err
	}
	if err := checkServer(r.Server); err != nil {
		return err
	}
	t := trace.Tally(events)
	if uint64(t.OK) != d.OffloadOK || uint64(t.Timeout) != d.OffloadTimedOut || uint64(t.Rejected) != d.OffloadRejected {
		return fmt.Errorf("offload log ok/timeout/rejected %d/%d/%d disagrees with counters %d/%d/%d",
			t.OK, t.Timeout, t.Rejected, d.OffloadOK, d.OffloadTimedOut, d.OffloadRejected)
	}
	return nil
}

// checkRepeat compares the digests of one seed run twice.
func checkRepeat(first, again uint64) error {
	if first != again {
		return fmt.Errorf("digest %016x, repeated %016x", first, again)
	}
	return nil
}

// paperCall is one timed scenario.Run.
type paperCall struct {
	c      paperCase
	r      *scenario.Result
	events []trace.Event
	start  time.Time
	wall   time.Duration
	cpu    time.Duration
}

// runPaperBlock runs one seed block and returns its digest; onRun, if
// set, receives each timed call.
func runPaperBlock(cases []paperCase, rec *trace.Recorder, onRun func(paperCall)) uint64 {
	h := fnv.New64a()
	for _, c := range cases {
		rec.Reset()
		cfg := c.cfg
		cfg.OnOffload = rec.Hook()
		c0 := cpuTime()
		t := time.Now()
		r := scenario.Run(cfg)
		d := time.Since(t)
		cpu := cpuTime() - c0
		events := rec.Events()
		fmt.Fprintf(h, "%s:%016x;", c.name, runDigest(r, events))
		if onRun != nil {
			onRun(paperCall{c: c, r: r, events: events, start: t, wall: d, cpu: cpu})
		}
	}
	return h.Sum64()
}

func runPaper(o opts) (*report, error) {
	rep := &report{metrics: metricSet{}}
	ms := rep.metrics
	var (
		setup              []float64
		rates, cpuPerFrame []float64
		runMS              = map[string][]float64{} // by case
		wall               time.Duration
		ok, attempts       uint64
		goodput            []float64
		events, ctlTicks   uint64
		srv                serverSum
		again              uint64
		runErr             error
		blocks             int
	)
	// The first seed block runs once untimed, as warm-up; its digest
	// must match the timed repeat.
	rec := trace.NewRecorder()
	firstSeed := splitSeed(o.seed, 0)
	firstDigest := runPaperBlock(paperBlock(firstSeed, o.tiny), rec, nil)
	kern, err := newRefKernel()
	if err != nil {
		return nil, err
	}
	mem := newMemWatch()
	deadline := time.Now().Add(o.budget)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		seed := splitSeed(o.seed, i)
		if i%paperRefEvery == 0 {
			kern.measure()
		}
		var cases []paperCase
		setup = append(setup, threadCPU(func() { cases = paperBlock(seed, o.tiny) }).Seconds())
		blockStart := time.Now()
		blockID := o.rec.open()
		mem.beginUnit()
		var blockWall, blockCPU time.Duration
		var frames float64
		digest := runPaperBlock(cases, rec, func(pc paperCall) {
			mem.sample()
			c, r := pc.c, pc.r
			o.rec.add("scenario.Run", blockID, pc.start, pc.start.Add(pc.wall))
			blockWall += pc.wall
			blockCPU += pc.cpu
			runMS[c.name] = append(runMS[c.name], durMS(pc.wall))
			rep.attempted++
			if err := checkPaperRun(r, pc.events); err != nil {
				rep.failed++
				if runErr == nil {
					runErr = fmt.Errorf("seed %d %s: %w", seed, c.name, err)
				}
			}
			n := float64(r.Device.Captured) * float64(c.devices)
			frames += n
			ok += r.Device.OffloadOK
			attempts += r.Device.OffloadAttempts
			goodput = append(goodput, r.MeanP(0, 0))
			events += r.EventsFired
			ctlTicks += uint64(r.Ticks * c.devices)
			srv.add(r.Server, time.Duration(r.Ticks)*time.Second)
		})
		o.rec.close(blockID, "bench.paper_block", 0, blockStart)
		mem.endUnit()
		wall += blockWall
		rates = append(rates, frames/paperFS/blockWall.Seconds())
		cpuPerFrame = append(cpuPerFrame, float64(blockCPU.Microseconds())/frames)
		blocks++
		if i == 0 {
			again = digest
		}
	}
	mem.finish()
	rep.check("paper.repeat_seed_identical", checkRepeat(firstDigest, again))
	rep.check("paper.conservation_and_offload_log", runErr)
	rep.note("state_hash", map[string]any{"seed": firstSeed, "block_digest": fmt.Sprintf("%016x", firstDigest),
		"repeat_digest": fmt.Sprintf("%016x", again), "blocks": blocks})

	setHost(rep, kern, median(cpuPerFrame), setup)
	ms.set("alloc_mb", mem.allocMB())
	ms.set("ok_ratio", ratio(ok, attempts))
	ms.set("goodput_fps", mean(goodput))
	mem.setGC(ms)
	ms.set("heap_peak_mb", mem.heapP90MB())
	byCase := make([][]float64, 0, len(runMS))
	for _, v := range runMS {
		byCase = append(byCase, v)
	}
	ms.set("wall.device_s_per_s", median(rates))
	ms.set("wall.rtt_p50_ms", medianOfMedians(byCase))
	ms.set("simtime.events", float64(events))
	ms.set("simtime.ns_per_event", float64(wall.Nanoseconds())/float64(events))
	ms.set("simnet.offload_attempts", float64(attempts))
	ms.set("controller.ticks", float64(ctlTicks))
	srv.set(ms)
	return rep, nil
}

// --- fleets ----------------------------------------------------------

// fleetSpec is a fleet workload: its configuration minus the seed,
// and the shard layout of its correctness side run.
type fleetSpec struct {
	cfg         scenario.FleetConfig
	otherShards int
}

// overloadFleet is the shed path: the default fleet on a V100 with the
// paper's batcher, far more devices than the server can serve.
func overloadFleet(o opts) fleetSpec {
	n := 5000
	if o.tiny {
		n = 300
	}
	return fleetSpec{cfg: scenario.FleetConfig{Devices: n, Shards: 1, Workers: 1}, otherShards: 2}
}

// provisionedGPU is an accelerator sized so that a few thousand
// devices' offloads fit: 2 ms per batch plus 5 µs per item for every
// model.
func provisionedGPU() *models.GPUProfile {
	g := &models.GPUProfile{Name: "ffbench provisioned", Curves: map[models.Model]models.BatchCurve{}}
	for _, m := range models.All() {
		g.Curves[m] = models.BatchCurve{Setup: 2 * time.Millisecond, PerItem: 5 * time.Microsecond}
	}
	return g
}

// provisionedFleet is the successful-offload path on two shards, so
// every submit and reply crosses the epoch-barrier merge.
func provisionedFleet(o opts) fleetSpec {
	n := 5000
	if o.tiny {
		n = 200
	}
	return fleetSpec{cfg: scenario.FleetConfig{
		Devices: n, Shards: 2, Workers: 2,
		GPU: provisionedGPU(), ServerMaxBatch: 4096,
	}, otherShards: 1}
}

// checkFleet applies the conservation laws and the invariant checker
// verdict to one fleet result.
func checkFleet(r scenario.FleetResult) error {
	if r.InvariantErr != nil {
		return r.InvariantErr
	}
	if err := checkOffloads(r.OffloadAttempts, r.OffloadOK, r.OffloadTimedOut, r.OffloadRejected); err != nil {
		return err
	}
	return checkServer(r.Server)
}

// checkShardInvariance compares the state hashes of one seed run at
// two shard counts.
func checkShardInvariance(a, b scenario.FleetResult) error {
	if a.StateHash != b.StateHash {
		return fmt.Errorf("state hash %016x at %d shards, %016x at %d shards",
			a.StateHash, a.Shards, b.StateHash, b.Shards)
	}
	return nil
}

// fleetRun is one timed fleet run.
type fleetRun struct {
	res      scenario.FleetResult
	setup    time.Duration
	setupCPU time.Duration
	ticks    []time.Duration
	finish   time.Duration
}

func (r *fleetRun) wall() time.Duration {
	w := r.finish
	for _, t := range r.ticks {
		w += t
	}
	return w
}

// driveFleet builds and runs one fleet, timing NewFleet, each
// StepTick and Finish; sample runs between calls, untimed.
func driveFleet(cfg scenario.FleetConfig, rec *recorder, sample func()) fleetRun {
	var fr fleetRun
	runStart := time.Now()
	runID := rec.open()
	t := time.Now()
	var f *scenario.Fleet
	fr.setupCPU = threadCPU(func() { f = scenario.NewFleet(cfg) })
	fr.setup = time.Since(t)
	rec.add("scenario.NewFleet", runID, t, t.Add(fr.setup))
	for more := true; more; {
		t = time.Now()
		more = f.StepTick()
		d := time.Since(t)
		rec.add("scenario.StepTick", runID, t, t.Add(d))
		fr.ticks = append(fr.ticks, d)
		if sample != nil {
			sample()
		}
	}
	t = time.Now()
	fr.res = f.Finish()
	fr.finish = time.Since(t)
	rec.add("scenario.Finish", runID, t, t.Add(fr.finish))
	rec.close(runID, "bench.fleet_run", 0, runStart)
	return fr
}

func runFleet(o opts, spec fleetSpec) (*report, error) {
	rep := &report{metrics: metricSet{}}
	ms := rep.metrics
	var (
		setup            []float64
		rates            []float64
		cpuPerFrame      []float64
		tickMS           [][]float64 // by tick index
		wall             time.Duration
		ok, attempts     uint64
		goodput          []float64
		events, ctlTicks uint64
		srv              serverSum
		first            fleetRun
		firstCfg         scenario.FleetConfig
		runErr           error
	)
	// The first seed runs once untimed, as warm-up; the timed repeat
	// must reproduce its state hash.
	// It also measures the peak heap: a forced collection at every
	// tick boundary leaves only what the fleet holds, which does not
	// depend on when the collector happened to run.
	warm := spec.cfg
	warm.Seed = splitSeed(o.seed, 0)
	var heapPeak uint64
	warmup := driveFleet(warm, nil, func() { heapPeak = max(heapPeak, liveHeap()) })
	kern, err := newRefKernel()
	if err != nil {
		return nil, err
	}
	mem := newMemWatch()
	deadline := time.Now().Add(o.budget)
	runs := 0
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		cfg := spec.cfg
		cfg.Seed = splitSeed(o.seed, i)
		// The kernel's collection also means each run starts from a
		// collected heap, so whether a collection overlaps NewFleet
		// does not depend on the run before it.
		kern.measure()
		mem.beginUnit()
		c0 := cpuTime()
		fr := driveFleet(cfg, o.rec, func() { mem.sample() })
		cpu := cpuTime() - c0
		mem.endUnit()
		runs++
		r := fr.res
		rep.attempted++
		if err := checkFleet(r); err != nil {
			rep.failed++
			if runErr == nil {
				runErr = fmt.Errorf("seed %d: %w", cfg.Seed, err)
			}
		}
		setup = append(setup, fr.setupCPU.Seconds())
		for k, d := range fr.ticks {
			if k == len(tickMS) {
				tickMS = append(tickMS, nil)
			}
			tickMS[k] = append(tickMS[k], durMS(d))
		}
		wall += fr.wall()
		rates = append(rates, float64(r.Captured)/spec.fs()/fr.wall().Seconds())
		cpuPerFrame = append(cpuPerFrame, float64(cpu.Microseconds())/float64(r.Captured))
		ok += r.OffloadOK
		attempts += r.OffloadAttempts
		dur := cfg.Duration
		if dur == 0 {
			dur = 10 * time.Second // FleetConfig's default
		}
		goodput = append(goodput, float64(r.OffloadOK+r.LocalDone)/float64(r.Devices)/dur.Seconds())
		events += r.Events
		ctlTicks += uint64(r.Ticks * r.Devices)
		srv.add(r.Server, dur+time.Second) // plus FleetConfig's default 1 s drain
		if i == 0 {
			first, firstCfg = fr, cfg
		}
	}

	mem.finish()
	// Correctness side run: the first seed again at the other shard
	// count. Its hash must match; its event count is recorded, not
	// checked (FleetResult.Events drifts with the shard count).
	side := firstCfg
	side.Shards, side.Workers = spec.otherShards, spec.otherShards
	other := driveFleet(side, nil, nil)
	rep.check("fleet.repeat_seed_identical", checkRepeat(warmup.res.StateHash, first.res.StateHash))
	rep.check("fleet.conservation", runErr)
	rep.check("fleet.side_run_conservation", checkFleet(other.res))
	rep.check("fleet.state_hash_shard_invariant", checkShardInvariance(first.res, other.res))
	rep.note("state_hash", map[string]any{
		"seed": firstCfg.Seed, "devices": first.res.Devices, "runs": runs,
		fmt.Sprintf("shards_%d", first.res.Shards): fmt.Sprintf("%016x", first.res.StateHash),
		fmt.Sprintf("shards_%d", other.res.Shards): fmt.Sprintf("%016x", other.res.StateHash),
	})
	rep.note("events_by_shards", map[string]any{
		fmt.Sprintf("shards_%d", first.res.Shards): first.res.Events,
		fmt.Sprintf("shards_%d", other.res.Shards): other.res.Events,
		"known_drift": "FleetResult.Events is not shard-count invariant; no end-to-end metric divides by it",
	})
	rep.note("premise", map[string]any{
		"offload_ok_ratio":         ratio(ok, attempts),
		"server_rejected_ratio":    ratio(srv.Rejected, srv.Submitted),
		"server_mean_batch":        srv.MeanBatchSize(),
		"server_submitted_per_run": float64(srv.Submitted) / float64(runs),
	})

	setHost(rep, kern, median(cpuPerFrame), setup)
	ms.set("alloc_mb", mem.allocMB())
	ms.set("ok_ratio", ratio(ok, attempts))
	ms.set("goodput_fps", mean(goodput))
	ms.set("heap_peak_mb", float64(heapPeak)/1e6)
	mem.setGC(ms)
	ms.set("wall.device_s_per_s", median(rates))
	ms.set("wall.rtt_p50_ms", medianOfMedians(tickMS))

	byShards := map[int]uint64{first.res.Shards: first.res.Events, other.res.Shards: other.res.Events}
	ms.set("simtime.events", float64(events))
	ms.set("simtime.events_1shard", float64(byShards[1]))
	ms.set("simtime.events_2shard", float64(byShards[2]))
	ms.set("simtime.ns_per_event", float64(wall.Nanoseconds())/float64(events))
	wallBy := map[int]time.Duration{first.res.Shards: first.wall(), other.res.Shards: other.wall()}
	ms.set("scenario.shard_speedup_x", wallBy[1].Seconds()/wallBy[2].Seconds())
	ms.set("simnet.offload_attempts", float64(attempts))
	ms.set("controller.ticks", float64(ctlTicks))
	srv.set(ms)
	return rep, nil
}

// fs is the fleet's per-device frame rate.
func (s fleetSpec) fs() float64 {
	if s.cfg.FS > 0 {
		return s.cfg.FS
	}
	return 30 // FleetConfig's default
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
