package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The reference kernel is a fixed piece of CPU work, independent of
// the program, that a run executes between its units of work. Its CPU
// time tracks how fast the host runs the same instructions at the
// moment: on a shared VM, neighbours running on the same cores slow
// them by up to half for minutes at a time, and process CPU time does
// not exclude that (it excludes only steal). The host-time metrics are
// scaled by refNominal over the run's median kernel time, which
// cancels most of that drift and none of the program's own cost.
//
// The kernel mixes what the simulator does: cache-missing updates of
// a table larger than L2, a walk of a shuffled list and a binary
// heap's compare-and-swap loops. Its memory is mapped outside the Go
// heap and it allocates nothing, so it moves neither the memory
// metrics nor the collector.
const (
	refNominal    = 2500 * time.Microsecond // about the kernel's median on the tuning host
	refTableWords = 1 << 19                 // 4 MB
	refListNodes  = 1 << 15
	refHeapItems  = 1 << 11
	refTimed      = 3 // timed kernel calls per measurement
)

type refKernel struct {
	table   []uint64
	next    []uint32 // one cycle through every list node
	heap    []uint64
	samples []float64 // CPU seconds per call
}

func newRefKernel() (*refKernel, error) {
	const size = refTableWords*8 + refListNodes*4 + refHeapItems*8
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference kernel: mmap: %w", err)
	}
	p := unsafe.Pointer(unsafe.SliceData(mem))
	k := &refKernel{
		table: unsafe.Slice((*uint64)(p), refTableWords),
		next:  unsafe.Slice((*uint32)(unsafe.Add(p, refTableWords*8)), refListNodes),
		heap:  unsafe.Slice((*uint64)(unsafe.Add(p, refTableWords*8+refListNodes*4)), refHeapItems)[:0],
	}
	// Link the nodes in a fixed shuffled order (Fisher-Yates driven by
	// xorshift), so each step of the walk misses the cache.
	order := make([]uint32, refListNodes)
	for i := range order {
		order[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(order) - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	for i, n := range order {
		k.next[n] = order[(i+1)%len(order)]
	}
	return k, nil
}

// measure runs a collection, so that no background marking competes
// with the kernel, then the kernel once untimed, so that its working
// set is cached whatever the program touched before, and then
// refTimed times, timed. It runs between units of work, outside their
// timing, where the collection finds little to mark: what the last
// unit built is garbage by then.
func (k *refKernel) measure() {
	runtime.GC()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	k.run()
	for i := 0; i < refTimed; i++ {
		k.samples = append(k.samples, threadCPU(k.run).Seconds())
	}
}

// refSink keeps the kernel's results live.
var refSink uint64

func (k *refKernel) run() {
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < 60_000; i++ {
		x = xorshift(x)
		k.table[x&(refTableWords-1)] += x
	}
	n := uint32(0)
	for i := 0; i < 2*refListNodes; i++ {
		n = k.next[n]
		acc += uint64(n)
	}
	h := k.heap[:0]
	for i := 0; i < 15_000; i++ {
		x = xorshift(x)
		h = heapPush(h, x%1_000_000)
		if len(h) == refHeapItems {
			var v uint64
			h, v = heapPop(h)
			acc += v
		}
	}
	refSink += acc + k.table[acc&(refTableWords-1)]
}

// scale is refNominal over the median kernel time; every run measures
// the kernel before its first unit of work.
func (k *refKernel) scale() float64 { return refNominal.Seconds() / median(k.samples) }

// setHost records a run's host-time metrics: CPU time per frame and
// the median set-up time, scaled to the nominal host speed by k, or
// as measured where k is nil. Per layer and in a diagnostic line it
// also records them as measured, with the kernel's median time.
func setHost(rep *report, k *refKernel, cpuUSPerFrame float64, setups []float64) {
	ms := rep.metrics
	scale, setup := 1.0, median(setups)
	host := map[string]any{"cpu_us_per_frame_raw": cpuUSPerFrame, "setup_s_raw": setup, "setups": len(setups)}
	if k != nil {
		scale = k.scale()
		kernMS := median(k.samples) * 1e3
		ms.set("host.ref_kernel_ms", kernMS)
		host["ref_kernel_ms"], host["ref_samples"], host["scale"] = kernMS, len(k.samples), scale
	}
	ms.set("cpu_us_per_frame", cpuUSPerFrame*scale)
	ms.set("setup_s", setup*scale)
	ms.set("host.cpu_us_per_frame_raw", cpuUSPerFrame)
	ms.set("host.setup_s_raw", setup)
	rep.note("host", host)
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// heapPush and heapPop keep h a binary min-heap; h never grows past
// its capacity, so neither allocates.
func heapPush(h []uint64, v uint64) []uint64 {
	h = append(h, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func heapPop(h []uint64) ([]uint64, uint64) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < n && h[l] < h[m] {
			m = l
		}
		if l+1 < n && h[l+1] < h[m] {
			m = l + 1
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return h, top
}
