package netproto

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"repro/internal/models"
)

// TestReaderStreamReuse decodes mixed messages through one Reader: the
// reused Request must carry no field over from the previous message,
// in particular a trace ID must not survive into an untraced request.
func TestReaderStreamReuse(t *testing.T) {
	in := []Request{
		{Stream: 1, FrameID: 10, Model: models.EfficientNetB0, TraceID: 77, Probe: true, Payload: bytes.Repeat([]byte{1}, 5000)},
		{Stream: 2, FrameID: 11, Model: models.MobileNetV3Small, Payload: []byte("x")},
		{Stream: 3, FrameID: 12, Model: models.MobileNetV3Small, CapturedUnixNano: -5, Payload: bytes.Repeat([]byte{3}, 200)},
		{Stream: 4, FrameID: 13, Model: models.MobileNetV3Small},
	}
	var stream []byte
	for i := range in {
		var err error
		if stream, err = AppendRequest(stream, &in[i]); err != nil {
			t.Fatal(err)
		}
	}
	rd := NewReader(bytes.NewReader(stream))
	var got Request
	for i, want := range in {
		if err := rd.ReadRequest(&got); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got.Stream != want.Stream || got.FrameID != want.FrameID || got.Model != want.Model ||
			got.CapturedUnixNano != want.CapturedUnixNano || got.Probe != want.Probe ||
			got.TraceID != want.TraceID || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("message %d: got %+v, want %+v", i, got, want)
		}
	}
	if err := rd.ReadRequest(&got); err != io.EOF {
		t.Fatalf("read past the end: err = %v, want io.EOF", err)
	}
	if got.FrameID != in[len(in)-1].FrameID {
		t.Fatal("a failed read overwrote the destination")
	}
}

func TestReaderResponses(t *testing.T) {
	in := []Response{
		{FrameID: 42, Label: 917, BatchSize: 15, TraceID: 9},
		{FrameID: 1, Rejected: true},
		{FrameID: 0, Label: -3},
	}
	var stream []byte
	for i := range in {
		stream = AppendResponse(stream, &in[i])
	}
	rd := NewReader(bytes.NewReader(stream))
	var got Response
	for i, want := range in {
		if err := rd.ReadResponse(&got); err != nil || got != want {
			t.Fatalf("message %d: got %+v (%v), want %+v", i, got, err, want)
		}
	}
}

// loopReader replays one encoded message forever.
type loopReader struct {
	msg []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.msg[l.off:])
	l.off = (l.off + n) % len(l.msg)
	return n, nil
}

// TestReaderReadRequestZeroAlloc pins the steady-state server read
// path at 0 allocations for a full-size 29 KB frame.
func TestReaderReadRequestZeroAlloc(t *testing.T) {
	msg, err := AppendRequest(nil, &Request{
		Stream: 1, FrameID: 2, Model: models.MobileNetV3Small, TraceID: 3,
		Payload: make([]byte, 29<<10),
	})
	if err != nil {
		t.Fatal(err)
	}
	rd := NewReader(&loopReader{msg: msg})
	var req Request
	for i := 0; i < 4; i++ {
		if err := rd.ReadRequest(&req); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := rd.ReadRequest(&req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Reader.ReadRequest allocates %.1f objects/message, want 0", allocs)
	}
	if len(req.Payload) != 29<<10 || req.TraceID != 3 {
		t.Fatalf("decoded %d-byte payload, trace %d", len(req.Payload), req.TraceID)
	}
}

// bytesPerRun reports the heap bytes f allocates per call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// hugeClaim is a request prefix announcing a 16 MB body that never
// arrives.
var hugeClaim = []byte{0x00, 0xFF, 0xFF, 0xFF, Version, TypeRequest}

// TestClaimedLengthAllocationBounded: what a decoder allocates is
// bounded by the bytes it received, not by the length a peer claims.
func TestClaimedLengthAllocationBounded(t *testing.T) {
	const limit = 128 << 10
	fn := bytesPerRun(10, func() {
		if _, err := ReadRequest(bytes.NewReader(hugeClaim)); err != io.ErrUnexpectedEOF {
			t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
		}
	})
	rdr := bytesPerRun(10, func() {
		var req Request
		if err := NewReader(bytes.NewReader(hugeClaim)).ReadRequest(&req); err != io.ErrUnexpectedEOF {
			t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
		}
	})
	if fn >= limit || rdr >= limit {
		t.Fatalf("16 MB claim followed by EOF allocates %d B (ReadRequest) and %d B (Reader), want < %d",
			fn, rdr, limit)
	}
}

// TestReaderDropsOversizedBuffer: a large message must not pin its
// buffer for the rest of the connection.
func TestReaderDropsOversizedBuffer(t *testing.T) {
	var stream []byte
	for _, size := range []int{1 << 20, 100} {
		var err error
		stream, err = AppendRequest(stream, &Request{Model: models.MobileNetV3Small, Payload: make([]byte, size)})
		if err != nil {
			t.Fatal(err)
		}
	}
	rd := NewReader(bytes.NewReader(stream))
	var req Request
	if err := rd.ReadRequest(&req); err != nil || len(req.Payload) != 1<<20 {
		t.Fatalf("large message: %v, %d-byte payload", err, len(req.Payload))
	}
	if err := rd.ReadRequest(&req); err != nil || len(req.Payload) != 100 {
		t.Fatalf("small message: %v, %d-byte payload", err, len(req.Payload))
	}
	if c := cap(rd.body); c > bodyChunk {
		t.Fatalf("reader kept a %d-byte buffer after a small message, want <= %d", c, bodyChunk)
	}
}
