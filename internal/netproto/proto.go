// Package netproto defines the wire protocol for the real-network
// mode: length-prefixed binary messages carrying inference requests
// (device → server) and results (server → device) over TCP.
//
// Framing: every message is
//
//	uint32  body length (big endian, excludes this prefix)
//	uint8   protocol version (Version)
//	uint8   message type
//	...     fixed-layout body
//
// The request body ends with a variable-length payload — the (virtual)
// JPEG bytes — so that offloading consumes real uplink bandwidth.
package netproto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/models"
)

// Version is the protocol version byte.
const Version = 1

// Message types.
const (
	TypeRequest  = 1
	TypeResponse = 2
)

// MaxMessageSize bounds a message body; larger prefixes indicate a
// corrupt or hostile stream.
const MaxMessageSize = 16 << 20

// Errors returned by the decoders.
var (
	ErrBadVersion = errors.New("netproto: unsupported protocol version")
	ErrBadType    = errors.New("netproto: unexpected message type")
	ErrTooLarge   = errors.New("netproto: message exceeds MaxMessageSize")
	ErrTruncated  = errors.New("netproto: truncated message body")
)

// Request is an inference task: classify Payload with Model.
type Request struct {
	// Stream identifies the device (tenant) on this connection.
	Stream uint32
	// FrameID echoes back in the response for matching.
	FrameID uint64
	// Model selects the classifier.
	Model models.Model
	// CapturedUnixNano is the capture timestamp for end-to-end
	// latency accounting.
	CapturedUnixNano int64
	// Probe marks heartbeat requests that should not count toward
	// workload statistics.
	Probe bool
	// TraceID, when non-zero, links the request to a device-side
	// lifecycle span (internal/spans). It travels as an optional
	// trailing field after the payload: writers omit it when zero, so
	// untraced traffic is byte-identical to the pre-trace protocol,
	// and readers accept both lengths.
	TraceID uint64
	// Payload is the encoded frame.
	Payload []byte
}

// Response is the server's verdict on one request.
type Response struct {
	FrameID uint64
	// Rejected reports load shedding (the batcher's overflow).
	Rejected bool
	// Label is the (simulated) classification result.
	Label int32
	// BatchSize is the executing batch's size (0 when rejected).
	BatchSize uint16
	// TraceID echoes the request's trace identifier (optional
	// trailing field, omitted when zero — see Request.TraceID).
	TraceID uint64
}

const requestFixedLen = 4 + 8 + 1 + 8 + 1 + 4 // stream, frame, model, captured, probe, payloadLen
const responseLen = 8 + 1 + 4 + 2
const traceLen = 8 // optional trailing trace ID on either message

// AppendRequest appends one fully framed request message (length
// prefix included) to buf and returns the extended slice. Callers that
// reuse buf across messages avoid the per-message allocation of
// WriteRequest.
func AppendRequest(buf []byte, r *Request) ([]byte, error) {
	if !r.Model.Valid() {
		return buf, fmt.Errorf("netproto: invalid model %d", int(r.Model))
	}
	bodyLen := 2 + requestFixedLen + len(r.Payload)
	if r.TraceID != 0 {
		bodyLen += traceLen
	}
	buf = growFrame(buf, bodyLen)
	o := len(buf) - bodyLen
	buf[o] = Version
	buf[o+1] = TypeRequest
	o += 2
	binary.BigEndian.PutUint32(buf[o:], r.Stream)
	o += 4
	binary.BigEndian.PutUint64(buf[o:], r.FrameID)
	o += 8
	buf[o] = byte(r.Model)
	o++
	binary.BigEndian.PutUint64(buf[o:], uint64(r.CapturedUnixNano))
	o += 8
	if r.Probe {
		buf[o] = 1
	} else {
		buf[o] = 0
	}
	o++
	binary.BigEndian.PutUint32(buf[o:], uint32(len(r.Payload)))
	o += 4
	copy(buf[o:], r.Payload)
	if r.TraceID != 0 {
		binary.BigEndian.PutUint64(buf[o+len(r.Payload):], r.TraceID)
	}
	return buf, nil
}

// AppendResponse appends one fully framed response message (length
// prefix included) to buf and returns the extended slice.
func AppendResponse(buf []byte, r *Response) []byte {
	bodyLen := 2 + responseLen
	if r.TraceID != 0 {
		bodyLen += traceLen
	}
	buf = growFrame(buf, bodyLen)
	o := len(buf) - bodyLen
	buf[o] = Version
	buf[o+1] = TypeResponse
	o += 2
	binary.BigEndian.PutUint64(buf[o:], r.FrameID)
	o += 8
	if r.Rejected {
		buf[o] = 1
	} else {
		buf[o] = 0
	}
	o++
	binary.BigEndian.PutUint32(buf[o:], uint32(r.Label))
	o += 4
	binary.BigEndian.PutUint16(buf[o:], r.BatchSize)
	o += 2
	if r.TraceID != 0 {
		binary.BigEndian.PutUint64(buf[o:], r.TraceID)
	}
	return buf
}

// growFrame extends buf by a 4-byte length prefix plus bodyLen body
// bytes and fills in the prefix. The body bytes are NOT cleared — when
// buf is reused its stale content shows through, so the Append*
// encoders must write every single body byte unconditionally.
func growFrame(buf []byte, bodyLen int) []byte {
	start := len(buf)
	need := start + 4 + bodyLen
	if cap(buf) < need {
		grown := make([]byte, need)
		copy(grown, buf)
		buf = grown
	} else {
		buf = buf[:need]
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(bodyLen))
	return buf
}

// WriteRequest encodes and writes one request as a single Write call.
func WriteRequest(w io.Writer, r *Request) error {
	buf, err := AppendRequest(nil, r)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// WriteResponse encodes and writes one response as a single Write
// call.
func WriteResponse(w io.Writer, r *Response) error {
	_, err := w.Write(AppendResponse(nil, r))
	return err
}

// bodyChunk bounds a body buffer's first allocation: a length prefix
// is only a claim, so a 6-byte stream announcing 16 MB costs one
// chunk, not 16 MB. It also caps the capacity a Reader keeps between
// messages; a normal frame (~29 KB) fits, so the steady state never
// reallocates.
const bodyChunk = 64 << 10

// Reader decodes a stream of messages through a buffered reader and
// one reused body buffer, so a connection's steady state allocates
// nothing per message. Many small responses arrive in one read call.
// A Reader is not safe for concurrent use.
type Reader struct {
	br     *bufio.Reader
	prefix [4]byte
	body   []byte
}

// NewReader returns a Reader over r. The Reader buffers, so r must
// not be read from elsewhere while the Reader is in use.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReader(r)}
}

// ReadRequest reads and decodes the next message into req. On success
// req.Payload aliases the Reader's buffer and is valid only until the
// next read; on error req is left unchanged.
func (rd *Reader) ReadRequest(req *Request) error {
	body, err := rd.next()
	if err != nil {
		return err
	}
	return decodeRequest(body, req)
}

// ReadResponse reads and decodes the next message into res; on error
// res is left unchanged.
func (rd *Reader) ReadResponse(res *Response) error {
	body, err := rd.next()
	if err != nil {
		return err
	}
	return decodeResponse(body, res)
}

// next reads one message body into the reused buffer. The previous
// message is consumed by now, so an oversized buffer it needed is
// dropped first instead of staying pinned for the connection's life.
func (rd *Reader) next() ([]byte, error) {
	if cap(rd.body) > bodyChunk {
		rd.body = nil
	}
	body, err := readFrame(rd.br, &rd.prefix, rd.body)
	rd.body = body[:0]
	return body, err
}

// readFrame reads one length-prefixed message body into buf's backing
// array and returns it. When buf is too small it grows to at most
// bodyChunk, then doubles only once full, so it never exceeds twice
// the bytes received or bodyChunk, whichever is larger: the allocation
// is bounded by what the peer actually sent. The returned slice
// carries any growth even on error.
func readFrame(r io.Reader, prefix *[4]byte, buf []byte) ([]byte, error) {
	buf = buf[:0]
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return buf, err
	}
	n := int(binary.BigEndian.Uint32(prefix[:]))
	if n > MaxMessageSize {
		return buf, ErrTooLarge
	}
	if n < 2 {
		return buf, ErrTruncated
	}
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(n, max(2*cap(buf), bodyChunk)))
			copy(grown, buf)
			buf = grown
		}
		end := min(n, cap(buf))
		k, err := io.ReadFull(r, buf[len(buf):end])
		if err == io.EOF && len(buf) > 0 {
			err = io.ErrUnexpectedEOF
		}
		buf = buf[:len(buf)+k]
		if err != nil {
			return buf, err
		}
	}
	if buf[0] != Version {
		return buf, ErrBadVersion
	}
	return buf, nil
}

// ReadRequest reads and decodes one request message. The result owns
// its payload; use a Reader to decode a stream without allocating.
func ReadRequest(r io.Reader) (*Request, error) {
	var prefix [4]byte
	body, err := readFrame(r, &prefix, nil)
	if err != nil {
		return nil, err
	}
	req := &Request{}
	if err := decodeRequest(body, req); err != nil {
		return nil, err
	}
	return req, nil
}

// ReadResponse reads and decodes one response message.
func ReadResponse(r io.Reader) (*Response, error) {
	var prefix [4]byte
	body, err := readFrame(r, &prefix, nil)
	if err != nil {
		return nil, err
	}
	res := &Response{}
	if err := decodeResponse(body, res); err != nil {
		return nil, err
	}
	return res, nil
}

// decodeRequest decodes one request body (version byte onwards) into
// req, which it writes only on success. Payload aliases body.
func decodeRequest(body []byte, req *Request) error {
	if body[1] != TypeRequest {
		return ErrBadType
	}
	if len(body) < 2+requestFixedLen {
		return ErrTruncated
	}
	var v Request
	o := 2
	v.Stream = binary.BigEndian.Uint32(body[o:])
	o += 4
	v.FrameID = binary.BigEndian.Uint64(body[o:])
	o += 8
	v.Model = models.Model(body[o])
	o++
	v.CapturedUnixNano = int64(binary.BigEndian.Uint64(body[o:]))
	o += 8
	v.Probe = body[o] == 1
	o++
	payloadLen := binary.BigEndian.Uint32(body[o:])
	o += 4
	// The body ends with the payload, optionally followed by an 8-byte
	// trace ID (absent in pre-trace senders).
	switch len(body) - o {
	case int(payloadLen):
	case int(payloadLen) + traceLen:
		v.TraceID = binary.BigEndian.Uint64(body[o+int(payloadLen):])
	default:
		return ErrTruncated
	}
	if !v.Model.Valid() {
		return fmt.Errorf("netproto: invalid model byte %d", body[6+8])
	}
	v.Payload = body[o : o+int(payloadLen)]
	*req = v
	return nil
}

// decodeResponse decodes one response body (version byte onwards)
// into res, which it writes only on success.
func decodeResponse(body []byte, res *Response) error {
	if body[1] != TypeResponse {
		return ErrBadType
	}
	if len(body) < 2+responseLen {
		return ErrTruncated
	}
	var v Response
	o := 2
	v.FrameID = binary.BigEndian.Uint64(body[o:])
	o += 8
	v.Rejected = body[o] == 1
	o++
	v.Label = int32(binary.BigEndian.Uint32(body[o:]))
	o += 4
	v.BatchSize = binary.BigEndian.Uint16(body[o:])
	o += 2
	if len(body)-o >= traceLen {
		v.TraceID = binary.BigEndian.Uint64(body[o:])
	}
	*res = v
	return nil
}
