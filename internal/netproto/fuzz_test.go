package netproto

import (
	"bytes"
	"testing"

	"repro/internal/models"
)

// Native fuzz targets: the decoders face bytes from the network and
// must never panic or over-allocate, whatever arrives. Each input goes
// through both the function form and a Reader, which must agree on the
// result or the error. `go test` exercises the seed corpus;
// `go test -fuzz=FuzzReadRequest` explores.

// sameErr reports whether two decode errors are the same outcome.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

func FuzzReadRequest(f *testing.F) {
	// Seeds: a valid message, a truncation, type/version confusion,
	// and garbage.
	var valid bytes.Buffer
	_ = WriteRequest(&valid, &Request{
		Stream: 1, FrameID: 2, Model: models.MobileNetV3Small,
		CapturedUnixNano: 3, Payload: []byte("abc"),
	})
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())-2])
	f.Add([]byte{0, 0, 0, 2, Version, TypeResponse})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte("GET / HTTP/1.1\r\n"))
	f.Add(hugeClaim)
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ReadRequest(bytes.NewReader(data))
		var viaReader Request
		rerr := NewReader(bytes.NewReader(data)).ReadRequest(&viaReader)
		if !sameErr(err, rerr) {
			t.Fatalf("ReadRequest err %v, Reader err %v", err, rerr)
		}
		if err != nil {
			return
		}
		if viaReader.Stream != req.Stream || viaReader.FrameID != req.FrameID ||
			viaReader.Model != req.Model || viaReader.CapturedUnixNano != req.CapturedUnixNano ||
			viaReader.Probe != req.Probe || viaReader.TraceID != req.TraceID ||
			!bytes.Equal(viaReader.Payload, req.Payload) {
			t.Fatalf("ReadRequest %+v, Reader %+v", req, viaReader)
		}
		// Anything accepted must round-trip.
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			t.Fatalf("decoded request fails to re-encode: %v", err)
		}
		again, err := ReadRequest(&buf)
		if err != nil {
			t.Fatalf("re-encoded request fails to decode: %v", err)
		}
		if again.FrameID != req.FrameID || again.Model != req.Model ||
			!bytes.Equal(again.Payload, req.Payload) {
			t.Fatal("request round-trip mismatch after fuzz decode")
		}
	})
}

func FuzzReadResponse(f *testing.F) {
	var valid bytes.Buffer
	_ = WriteResponse(&valid, &Response{FrameID: 9, Rejected: true, Label: -1, BatchSize: 15})
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:3])
	f.Add([]byte{0, 0, 0, 0})
	f.Add(hugeClaim)
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := ReadResponse(bytes.NewReader(data))
		var viaReader Response
		rerr := NewReader(bytes.NewReader(data)).ReadResponse(&viaReader)
		if !sameErr(err, rerr) {
			t.Fatalf("ReadResponse err %v, Reader err %v", err, rerr)
		}
		if err != nil {
			return
		}
		if viaReader != *res {
			t.Fatalf("ReadResponse %+v, Reader %+v", *res, viaReader)
		}
		var buf bytes.Buffer
		if err := WriteResponse(&buf, res); err != nil {
			t.Fatalf("decoded response fails to re-encode: %v", err)
		}
		again, err := ReadResponse(&buf)
		if err != nil || *again != *res {
			t.Fatalf("response round-trip mismatch: %v / %+v vs %+v", err, again, res)
		}
	})
}
