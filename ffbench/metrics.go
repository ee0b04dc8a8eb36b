package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// endToEnd lists the metrics an untraced run prints. Every workload
// reports every one of them; README.md gives each one's meaning on
// the simulator (paper, fleet_*) and on the live plane (live). Host
// cost is CPU time: on the shared VM the benchmark was tuned on, wall
// time swung 10-40% between runs of the same input (the wall-clock
// throughput and latency are per-layer metrics, without a bound).
var endToEnd = []string{
	"setup_s",
	"cpu_us_per_frame",
	"alloc_mb",
	"heap_peak_mb",
	"ok_ratio",
	"goodput_fps",
}

// perLayer lists the metrics a traced run prints. A layer a workload
// does not execute reads 0.
var perLayer = []string{
	"wall.device_s_per_s", "wall.rtt_p50_ms",
	"simtime.events", "simtime.events_1shard", "simtime.events_2shard",
	"simtime.ns_per_event", "simtime.self_share", "simtime.merge_share",
	"scenario.tick_ms_p50", "scenario.tick_ms_max", "scenario.finish_ms", "scenario.run_ms_p50",
	"scenario.self_share", "rng.self_share", "frame.self_share", "scenario.shard_speedup_x",
	"simnet.self_share", "simnet.offload_attempts",
	"server.submitted", "server.completed", "server.rejected", "server.batches",
	"server.mean_batch", "server.util", "server.self_share",
	"controller.ticks", "controller.self_share",
	"device.self_share",
	"runtime.self_share", "gc.cycles", "gc.pause_ms",
	"loadgen.send_us_p50", "loadgen.send_us_p99", "loadgen.send_errors", "loadgen.self_share",
	"netproto.self_share",
	"realnet.submitted", "realnet.completed", "realnet.rejected", "realnet.dropped",
	"realnet.batches", "realnet.mean_batch", "realnet.host_ms_p50", "realnet.self_share",
	"live.rtt_p90_ms", "live.rtt_p99_ms", "live.max_rate_fps",
	"gen.late_ms_p99", "gen.late_ms_max",
	"trace.overhead_pct", "trace.spans",
	"host.cpu_us_per_frame_raw", "host.setup_s_raw", "host.ref_kernel_ms",
}

var units = map[string]string{
	"setup_s":          "s",
	"cpu_us_per_frame": "us",
	"alloc_mb":         "MB",
	"heap_peak_mb":     "MB",
	"ok_ratio":         "ratio",
	"goodput_fps":      "fps",

	"wall.device_s_per_s":       "s/s",
	"wall.rtt_p50_ms":           "ms",
	"simtime.events":            "count",
	"simtime.events_1shard":     "count",
	"simtime.events_2shard":     "count",
	"simtime.ns_per_event":      "ns",
	"simtime.self_share":        "share",
	"simtime.merge_share":       "share",
	"scenario.tick_ms_p50":      "ms",
	"scenario.tick_ms_max":      "ms",
	"scenario.finish_ms":        "ms",
	"scenario.run_ms_p50":       "ms",
	"scenario.self_share":       "share",
	"rng.self_share":            "share",
	"frame.self_share":          "share",
	"scenario.shard_speedup_x":  "x",
	"simnet.self_share":         "share",
	"simnet.offload_attempts":   "count",
	"server.submitted":          "count",
	"server.completed":          "count",
	"server.rejected":           "count",
	"server.batches":            "count",
	"server.mean_batch":         "count",
	"server.util":               "share",
	"server.self_share":         "share",
	"controller.ticks":          "count",
	"controller.self_share":     "share",
	"device.self_share":         "share",
	"runtime.self_share":        "share",
	"gc.cycles":                 "count",
	"gc.pause_ms":               "ms",
	"loadgen.send_us_p50":       "us",
	"loadgen.send_us_p99":       "us",
	"loadgen.send_errors":       "count",
	"loadgen.self_share":        "share",
	"netproto.self_share":       "share",
	"realnet.submitted":         "count",
	"realnet.completed":         "count",
	"realnet.rejected":          "count",
	"realnet.dropped":           "count",
	"realnet.batches":           "count",
	"realnet.mean_batch":        "count",
	"realnet.host_ms_p50":       "ms",
	"realnet.self_share":        "share",
	"live.rtt_p90_ms":           "ms",
	"live.rtt_p99_ms":           "ms",
	"live.max_rate_fps":         "fps",
	"gen.late_ms_p99":           "ms",
	"gen.late_ms_max":           "ms",
	"trace.overhead_pct":        "%",
	"trace.spans":               "count",
	"host.cpu_us_per_frame_raw": "us",
	"host.setup_s_raw":          "s",
	"host.ref_kernel_ms":        "ms",
}

// quantile returns the q-quantile of an ascending-sorted sample by
// linear interpolation (0 for an empty one).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median sorts a copy of xs and returns its middle.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// medianOfMedians is the median over positions of each position's
// median. A position is the k-th call of a unit of work, which does
// the same kind of work in every unit (one experiment of a seed block,
// one network phase of a fleet run). Call times cluster by position,
// and the median of the pooled calls would sit between two clusters
// and jump from one to the other between runs.
func medianOfMedians(byPos [][]float64) float64 {
	meds := make([]float64, len(byPos))
	for k, v := range byPos {
		meds[k] = median(v)
	}
	return median(meds)
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far, at the
// clock's nanosecond resolution (getrusage reports whole
// microseconds, too coarse for a set-up of a few tens of them).
func cpuTime() time.Duration {
	const clockProcessCPUTimeID = 2 // CLOCK_PROCESS_CPUTIME_ID
	return clock(clockProcessCPUTimeID)
}

// threadCPU runs f on one locked OS thread and returns that thread's
// CPU time over it: the collector's background workers, which may run
// on other threads meanwhile, do not count.
func threadCPU(f func()) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	c0 := clock(clockThreadCPUTimeID)
	f()
	return clock(clockThreadCPUTimeID) - c0
}

func clock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("ffbench: clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// splitSeed derives the i-th independent, non-zero seed from a
// workload seed (SplitMix64 finalizer).
func splitSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}
