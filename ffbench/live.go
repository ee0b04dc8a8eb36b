package main

import (
	"bytes"
	"fmt"
	"log"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/loadgen"
	"repro/internal/models"
	"repro/internal/netproto"
	"repro/internal/realnet"
	"repro/internal/rng"
)

// liveSpec sizes the live workload: an in-process realnet.Server on
// loopback and one open-loop sender on a loadgen.Mux, stepping through
// fixed frame rates. rates[0] is the reference rate for the RTT
// metrics.
type liveSpec struct {
	timeScale float64
	rates     []float64 // frames per wall second, ascending
	step      time.Duration
	devices   int // virtual devices the frames are spread over
	payload   int // encoded frame size, bytes
	limit     time.Duration
	conns     int
	setupReps int
}

func (s liveSpec) passDur() time.Duration { return time.Duration(len(s.rates)) * s.step }

const liveFS = 30 // frames per second of one virtual device

// monoBase anchors reply timestamps taken on the mux's read goroutines
// to the monotonic clock.
var monoBase = time.Now()

func liveSizes(o opts) liveSpec {
	s := liveSpec{
		timeScale: 0.01,
		rates:     []float64{500, 1000, 2000, 3000},
		step:      1500 * time.Millisecond,
		devices:   60,
		payload:   29 * 1024, // the paper's 380 px JPEG q85 offload
		limit:     250 * time.Millisecond,
		conns:     min(2, runtime.NumCPU()),
		setupReps: 60,
	}
	if o.tiny {
		s.rates = []float64{100, 200}
		s.step = 200 * time.Millisecond
		s.setupReps = 1
	}
	return s
}

// liveFrame is one due frame. The sender owns the plain fields until
// the pass ends; the reply fields are written by the mux's read
// goroutine after it wins the state transition sent→answered, and are
// read only after the mux has closed.
type liveFrame struct {
	step               int
	mid                bool          // the step's middle frame, where backlog is sampled
	due                time.Duration // offset from the pass start
	sendStart, sendEnd time.Duration
	state              atomic.Uint32
	reply              time.Duration
	rejected           bool
	batch              uint16
	label              int32
}

const (
	frameUnsent uint32 = iota
	frameSent
	frameAnswered
	frameSendErr
)

// livePass is the outcome of one walk up the rate ladder.
type livePass struct {
	spec     liveSpec
	frames   []liveFrame
	setup    time.Duration
	wall     time.Duration // from the first due time to the end of the drain wait
	cpu      time.Duration
	stats    realnet.ServerStats
	mismatch int64 // replies that matched no sent frame, or one already answered
	midIn    []int64
	endIn    []int64
}

// startLive brings up a server and a mux with every conn connected.
func startLive(spec liveSpec, seed uint64, handler func(dev int, res *netproto.Response)) (*realnet.Server, *loadgen.Mux, error) {
	// The server logs each accepted session; waiting for those lines
	// blocks on an event instead of polling, which matters because
	// the runtime's netpoller sleeps in whole milliseconds and the
	// set-up takes a few hundred microseconds.
	accepted := sessionLog{ch: make(chan struct{}, spec.conns)}
	srv, err := realnet.NewServer(realnet.ServerConfig{
		Addr: "127.0.0.1:0", TimeScale: spec.timeScale, Logger: log.New(accepted, "", 0),
	})
	if err != nil {
		return nil, nil, err
	}
	mux, err := loadgen.NewMux(loadgen.MuxConfig{
		Addr: srv.Addr().String(), Conns: spec.conns, Seed: seed, Handler: handler,
	})
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	timeout := time.NewTimer(5 * time.Second)
	defer timeout.Stop()
	for n := 0; n < spec.conns; n++ {
		select {
		case <-accepted.ch:
		case <-timeout.C:
			mux.Close()
			srv.Close()
			return nil, nil, fmt.Errorf("live: %d of %d sessions up after 5 s", n, spec.conns)
		}
	}
	// The server has accepted every conn, so each dial has returned;
	// the mux marks a conn up right after its dial returns. Poll with
	// a kernel sleep: a goroutine that keeps yielding stays runnable,
	// so no idle P blocks in the netpoller, and the conn goroutine's
	// wake-up could wait milliseconds for sysmon.
	for mux.Up() < spec.conns {
		sleepUntil(time.Now().Add(20 * time.Microsecond))
	}
	return srv, mux, nil
}

// sessionLog is a server log sink that signals each accepted session.
type sessionLog struct{ ch chan struct{} }

func (l sessionLog) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte("connected from")) {
		select {
		case l.ch <- struct{}{}:
		default:
		}
	}
	return len(p), nil
}

// runLivePass walks the rate ladder once on a fresh server and mux.
func runLivePass(spec liveSpec, seed uint64, payload []byte, rec *recorder, mem *memWatch) (*livePass, error) {
	p := &livePass{spec: spec}
	var due time.Duration
	for k, r := range spec.rates {
		n := int(r * spec.step.Seconds())
		for j := 0; j < n; j++ {
			p.frames = append(p.frames, liveFrame{step: k, mid: j == n/2, due: due + time.Duration(float64(j)/r*float64(time.Second))})
		}
		due += spec.step
	}
	var sent, answered, sendErrs atomic.Int64
	var mismatch atomic.Int64
	handler := func(dev int, res *netproto.Response) {
		_, seq := loadgen.UnpackFrameID(res.FrameID)
		i := int(seq)*spec.devices + dev
		if dev >= spec.devices || i >= len(p.frames) ||
			!p.frames[i].state.CompareAndSwap(frameSent, frameAnswered) {
			mismatch.Add(1)
			return
		}
		f := &p.frames[i]
		f.reply = time.Since(monoBase) // made relative to the pass start after the pass
		f.rejected = res.Rejected
		f.batch = res.BatchSize
		f.label = res.Label
		answered.Add(1)
	}

	passStart := time.Now()
	passID := rec.open()
	srv, mux, err := startLive(spec, seed, handler)
	if err != nil {
		return nil, err
	}
	p.setup = time.Since(passStart)
	rec.add("bench.live_setup", passID, passStart, passStart.Add(p.setup))

	mem.beginUnit()
	c0 := cpuTime()
	start := time.Now()
	req := netproto.Request{Model: models.MobileNetV3Small, Payload: payload}
	inflight := func() int64 { return sent.Load() - answered.Load() - sendErrs.Load() }
	for i := range p.frames {
		f := &p.frames[i]
		if i > 0 && f.step != p.frames[i-1].step {
			p.endIn = append(p.endIn, inflight())
		}
		if i%64 == 0 {
			mem.sample()
		}
		if f.mid {
			p.midIn = append(p.midIn, inflight())
		}
		at := start.Add(f.due)
		sleepUntil(at)
		dev := i % spec.devices
		req.Stream = uint32(dev)
		req.FrameID = loadgen.PackFrameID(dev, uint32(i/spec.devices))
		req.CapturedUnixNano = at.UnixNano()
		f.state.Store(frameSent)
		sent.Add(1)
		ss := time.Now()
		err := mux.Send(dev, &req)
		se := time.Now()
		f.sendStart, f.sendEnd = ss.Sub(start), se.Sub(start)
		if err != nil && f.state.CompareAndSwap(frameSent, frameSendErr) {
			sendErrs.Add(1)
		}
	}
	p.endIn = append(p.endIn, inflight())
	// Drain: wait for every reply, but no longer than the latency
	// limit plus a second past the last due time.
	end := start.Add(due + spec.limit + time.Second)
	for inflight() > 0 && time.Now().Before(end) {
		time.Sleep(time.Millisecond)
	}
	p.wall = time.Since(start)
	p.cpu = cpuTime() - c0
	mux.Close()
	p.stats = srv.Stats()
	srv.Close()
	mem.endUnit()
	p.mismatch = mismatch.Load()

	base := start.Sub(monoBase)
	for i := range p.frames {
		f := &p.frames[i]
		if f.state.Load() == frameAnswered {
			f.reply -= base
		}
	}
	if rec != nil {
		// One span per answered frame, from its due time to its reply,
		// with its Send call as the child.
		for i := range p.frames {
			f := &p.frames[i]
			parent := passID
			switch f.state.Load() {
			case frameUnsent:
				continue
			case frameAnswered:
				parent = rec.add("live.frame", passID, start.Add(f.due), start.Add(f.reply))
			}
			rec.add("loadgen.Send", parent, start.Add(f.sendStart), start.Add(f.sendEnd))
		}
		rec.close(passID, "bench.live_pass", 0, passStart)
	}
	return p, nil
}

// sleepUntil blocks the calling thread until t. It sleeps in the
// kernel rather than on a runtime timer: runtime timers fire through
// the netpoller, which waits in whole milliseconds, and would make the
// open-loop sender late by about a millisecond on most frames.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR (a runtime signal) just goes round again
	}
}

// frameKind is how a frame of a finished pass resolved.
type frameKind int

const (
	frameOK frameKind = iota
	frameRejected
	frameLate
	frameSendError
	frameLost
)

// outcome classifies one frame of a finished pass. lat is timed from
// the due time; a refused, late or unanswered frame's lat is pushed
// past the limit so it counts as missing it.
func (p *livePass) outcome(f *liveFrame) (frameKind, time.Duration) {
	over := p.spec.limit + time.Nanosecond
	switch f.state.Load() {
	case frameSendErr:
		return frameSendError, over
	case frameAnswered:
	default:
		return frameLost, max(over, p.wall-f.due)
	}
	lat := f.reply - f.due
	switch {
	case f.rejected:
		return frameRejected, max(lat, over)
	case lat > p.spec.limit:
		return frameLate, lat
	}
	return frameOK, lat
}

// checkLiveReplies verifies every reply matched exactly one sent frame
// and that every classified frame carries the server's label for it.
func checkLiveReplies(p *livePass) error {
	if p.mismatch > 0 {
		return fmt.Errorf("%d replies matched no outstanding frame", p.mismatch)
	}
	var replies uint64
	for i := range p.frames {
		f := &p.frames[i]
		if f.state.Load() != frameAnswered {
			continue
		}
		replies++
		dev := i % p.spec.devices
		id := loadgen.PackFrameID(dev, uint32(i/p.spec.devices))
		if !f.rejected && f.label != int32(id%1000) {
			return fmt.Errorf("frame %d: label %d, want %d", id, f.label, id%1000)
		}
	}
	s := p.stats
	if s.Completed+s.Rejected > s.Submitted {
		return fmt.Errorf("realnet completed %d + rejected %d > submitted %d", s.Completed, s.Rejected, s.Submitted)
	}
	if replies > s.Completed+s.Rejected {
		return fmt.Errorf("%d replies but the server resolved %d", replies, s.Completed+s.Rejected)
	}
	return nil
}

// stepStats are one rate step's counts over every pass.
type stepStats struct {
	Rate        float64 `json:"rate_fps"`
	Due         int     `json:"due"`
	Sent        int     `json:"sent"`
	OK          int     `json:"ok"`
	Rejected    int     `json:"rejected"`
	Late        int     `json:"late"`
	SendErrors  int     `json:"send_errors"`
	Lost        int     `json:"lost"`
	InflightMid []int64 `json:"inflight_mid"`
	InflightEnd []int64 `json:"inflight_end"`
	RTTp50      float64 `json:"rtt_p50_ms"`
	RTTp99      float64 `json:"rtt_p99_ms"`
	LateP99     float64 `json:"gen_late_p99_ms"`
	LateMax     float64 `json:"gen_late_max_ms"`
	lat, gen    []float64
}

func runLive(o opts) (*report, error) {
	spec := liveSizes(o)
	rep := &report{metrics: metricSet{}}
	ms := rep.metrics
	payload := make([]byte, spec.payload)
	r := rng.New(o.seed)
	for i := range payload {
		payload[i] = byte(r.Uint64())
	}

	// Extra set-up samples: bring the stack up and down.
	var setup []float64
	for i := 0; i < spec.setupReps; i++ {
		t := time.Now()
		srv, mux, err := startLive(spec, o.seed, nil)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t).Seconds())
		mux.Close()
		srv.Close()
	}

	mem := newMemWatch()
	var passes []*livePass
	passLen := spec.passDur() + time.Second
	deadline := time.Now().Add(o.budget)
	for i := 0; i == 0 || time.Until(deadline) > passLen; i++ {
		p, err := runLivePass(spec, splitSeed(o.seed, i), payload, o.rec, mem)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		setup = append(setup, p.setup.Seconds())
	}

	steps := make([]stepStats, len(spec.rates))
	var cpu, wall time.Duration
	var due, ok int
	var st realnet.ServerStats
	var gen, host []float64
	var replyErr error
	curve := models.TeslaV100().Curve(models.MobileNetV3Small)
	for _, p := range passes {
		if err := checkLiveReplies(p); err != nil && replyErr == nil {
			replyErr = err
		}
		cpu += p.cpu
		st.Submitted += p.stats.Submitted
		st.Completed += p.stats.Completed
		st.Rejected += p.stats.Rejected
		st.Dropped += p.stats.Dropped
		st.Batches += p.stats.Batches
		for k := range spec.rates {
			steps[k].InflightEnd = append(steps[k].InflightEnd, p.endIn[k])
			if k < len(p.midIn) {
				steps[k].InflightMid = append(steps[k].InflightMid, p.midIn[k])
			}
		}
		for i := range p.frames {
			f := &p.frames[i]
			s := &steps[f.step]
			kind, lat := p.outcome(f)
			s.Due++
			due++
			rep.attempted++
			switch kind {
			case frameOK:
				s.OK++
				ok++
				if f.batch > 0 {
					model := durMS(curve.Latency(int(f.batch))) * spec.timeScale
					host = append(host, durMS(f.reply-f.sendStart)-model)
				}
			case frameRejected:
				s.Rejected++
			case frameLate:
				s.Late++
			case frameSendError:
				s.SendErrors++
				rep.failed++
			case frameLost:
				s.Lost++
				rep.failed++
			}
			s.lat = append(s.lat, durMS(lat))
			if f.state.Load() != frameUnsent {
				s.Sent++
				late := durMS(f.sendStart - f.due)
				s.gen = append(s.gen, late)
				gen = append(gen, late)
			}
		}
	}
	wall = time.Duration(len(passes)) * spec.passDur()
	maxRate := 0.0
	for k := range steps {
		s := &steps[k]
		s.Rate = spec.rates[k]
		sort.Float64s(s.lat)
		sort.Float64s(s.gen)
		s.RTTp50, s.RTTp99 = quantile(s.lat, 0.5), quantile(s.lat, 0.99)
		s.LateP99, s.LateMax = quantile(s.gen, 0.99), last(s.gen)
		if s.RTTp99 <= durMS(spec.limit) && !backlogGrows(s) {
			maxRate = s.Rate
		}
		rep.note("live_step", s)
	}
	rep.check("live.replies_match_sent_frames", replyErr)
	ref, top := &steps[0], &steps[len(steps)-1]
	rep.note("premise", map[string]any{
		"lowest_step_ok_ratio": float64(ref.OK) / float64(ref.Due),
		"passes":               len(passes),
		"conns":                spec.conns,
		"senders":              1,
	})

	sort.Float64s(gen)
	sort.Float64s(host)
	topWall := time.Duration(len(passes)) * spec.step
	setHost(rep, nil, float64(cpu.Microseconds())/float64(due), setup)
	ms.set("alloc_mb", mem.allocMB())
	ms.set("ok_ratio", float64(ok)/float64(due))
	ms.set("goodput_fps", float64(ok)/wall.Seconds())
	ms.set("wall.device_s_per_s", float64(top.OK)/topWall.Seconds()/liveFS)
	ms.set("wall.rtt_p50_ms", ref.RTTp50)
	ms.set("live.rtt_p90_ms", quantile(ref.lat, 0.9))
	ms.set("live.rtt_p99_ms", ref.RTTp99)
	mem.finish()
	mem.setGC(ms)
	ms.set("heap_peak_mb", mem.heapP90MB())
	sendErrors := 0
	for _, s := range steps {
		sendErrors += s.SendErrors
	}
	ms.set("loadgen.send_errors", float64(sendErrors))
	ms.set("realnet.submitted", float64(st.Submitted))
	ms.set("realnet.completed", float64(st.Completed))
	ms.set("realnet.rejected", float64(st.Rejected))
	ms.set("realnet.dropped", float64(st.Dropped))
	ms.set("realnet.batches", float64(st.Batches))
	ms.set("realnet.mean_batch", ratio(st.Completed, st.Batches))
	ms.set("realnet.host_ms_p50", quantile(host, 0.5))
	ms.set("live.max_rate_fps", maxRate)
	ms.set("gen.late_ms_p99", quantile(gen, 0.99))
	ms.set("gen.late_ms_max", last(gen))
	return rep, nil
}

// backlogGrows reports whether in-flight frames at a step's end
// exceed those at its middle by more than 20 ms of arrivals in any
// pass.
func backlogGrows(s *stepStats) bool {
	slack := int64(math.Ceil(s.Rate * 0.02))
	for i, end := range s.InflightEnd {
		if i < len(s.InflightMid) && end > s.InflightMid[i]+slack {
			return true
		}
	}
	return false
}

func last(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[len(sorted)-1]
}
