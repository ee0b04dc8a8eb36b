// Package realnet runs the FrameFeedback system over real TCP
// sockets and the wall clock: a multi-tenant edge inference server
// with the same adaptive batching policy as the simulator, and an edge
// device client driven by the identical controller.Policy
// implementations.
//
// GPU execution and local inference are simulated by calibrated sleeps
// (the models package latency surfaces); everything else — framing,
// concurrency, backpressure, deadline accounting, connection faults —
// is real. This mode exists to demonstrate that the controller code is
// transport-agnostic and to provide runnable ffserver/ffdevice
// binaries.
//
// # Fault model
//
// The transport is built to degrade, never to die:
//
//   - A device that disconnects with frames queued or executing does
//     not crash the server: its session drains in-flight batch replies
//     for up to DrainTimeout (or drops them immediately when
//     DropOnDisconnect is set), then dismantles itself.
//   - A device that stops reading cannot wedge a writer goroutine:
//     every response write carries a WriteTimeout deadline, and a
//     failed write aborts only that session.
//   - The client reconnects on its own (see Dial): while disconnected,
//     every offload attempt is accounted as an immediate timeout, so
//     the FrameFeedback equilibrium T = 0.1·F_s keeps probing and
//     recovers P_o automatically once the server is back.
package realnet

import (
	"errors"
	"io"
	"log"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/models"
	"repro/internal/netproto"
	"repro/internal/server"
)

// DefaultDrainTimeout bounds how long a session waits for in-flight
// batch replies after its device disconnects.
const DefaultDrainTimeout = 2 * time.Second

// DefaultWriteTimeout bounds each response write so a stalled device
// cannot wedge its writer goroutine.
const DefaultWriteTimeout = 5 * time.Second

// ServerConfig parameterizes the TCP edge server.
type ServerConfig struct {
	// Addr is the listen address, e.g. ":9771" or "127.0.0.1:0".
	Addr string
	// GPU is the accelerator latency profile; default TeslaV100.
	GPU *models.GPUProfile
	// MaxBatch caps batch sizes; default server.DefaultMaxBatch.
	MaxBatch int
	// TimeScale multiplies every simulated execution latency;
	// < 1 speeds the server up (useful in tests). Default 1.
	TimeScale float64
	// WriteTimeout is the per-response write deadline; default
	// DefaultWriteTimeout. Negative disables it.
	WriteTimeout time.Duration
	// DrainTimeout bounds how long a disconnected session waits for
	// in-flight batch replies before dropping them; default
	// DefaultDrainTimeout. It also bounds how long Close waits for
	// the batcher to finish outstanding work. Negative disables
	// draining (equivalent to DropOnDisconnect for sessions and an
	// immediate hard stop for Close).
	DrainTimeout time.Duration
	// DropOnDisconnect skips the drain entirely: replies for a
	// disconnected device are discarded (and counted as dropped)
	// instead of being flushed to the dead socket.
	DropOnDisconnect bool
	// MaxConns caps concurrent device connections. Once the cap is
	// reached, new connections are shed with a fast reject (the socket
	// is closed immediately, no goroutine or session is spun up), so a
	// connection flood degrades into cheap accept+close churn instead
	// of unbounded goroutine growth. 0 means unlimited.
	MaxConns int
	// RejectLogEvery, when positive, logs every Nth rejection per
	// tenant (the first one always) so shed load is visible without
	// flooding the log. 0 disables rejection logging.
	RejectLogEvery int
	// Instruments, when non-nil, receives runtime telemetry (see
	// NewServerInstruments). Nil disables instrumentation at zero
	// cost.
	Instruments *ServerInstruments
	// Logger receives operational messages; nil silences them.
	Logger *log.Logger
}

// ServerStats is a snapshot of the server's cumulative counters.
type ServerStats struct {
	// Submitted counts requests read off device connections.
	Submitted uint64
	// Completed counts requests answered with a classification.
	Completed uint64
	// Rejected counts requests shed by the batcher's overflow rule.
	Rejected uint64
	// Dropped counts replies discarded instead of written — the
	// device disconnected, stalled, or the server shut down first.
	// It overlaps Completed/Rejected: a request whose batch executed
	// after its device vanished is counted in both.
	Dropped uint64
	// Batches counts executed batches.
	Batches uint64
	// ConnsShed counts connections fast-rejected by the MaxConns
	// accept guard.
	ConnsShed uint64
}

// Server is the real-TCP edge inference server.
type Server struct {
	cfg      ServerConfig
	listener net.Listener

	reqCh  chan incoming
	doneCh chan struct{}
	wg     sync.WaitGroup

	// readers counts read loops, the only senders on reqCh.
	// registerConn adds to it under connMu, so once Close has set
	// closing no loop can start, and when the count reaches zero
	// Close can close reqCh.
	readers sync.WaitGroup

	closeOnce sync.Once
	closeErr  error

	// connMu guards conns; Close force-closes every registered
	// connection so blocked read loops unwind immediately.
	connMu  sync.Mutex
	conns   map[net.Conn]struct{}
	closing bool

	// ExtraDelay is added to every batch execution; it can be
	// changed at runtime (atomically, in nanoseconds) to emulate
	// transient server degradation in experiments.
	extraDelay atomic.Int64

	// slowdown multiplies every batch execution time (float64 bits;
	// 0 means the default 1). Scenario daemons drive it through
	// SetSlowdown to emulate a live gpu_stall.
	slowdown atomic.Uint64

	// pending counts requests read off a connection whose reply
	// callback has not run yet; Close's grace period waits for it to
	// reach zero.
	pending atomic.Int64

	stats struct {
		submitted atomic.Uint64
		completed atomic.Uint64
		rejected  atomic.Uint64
		dropped   atomic.Uint64
		batches   atomic.Uint64
		connsShed atomic.Uint64
	}

	// instr is never nil (a zero instrument set is a no-op).
	instr *ServerInstruments
}

// incoming is one request on its way to the batcher: the decoded
// header fields the batcher needs, by value, plus the session that
// owes the device its reply. The payload is never read, so it stays
// behind in the connection's reused read buffer. The fields are
// ordered, and the model narrowed to a byte (the decoder has checked
// it is valid), so an incoming is 32 bytes.
type incoming struct {
	frameID uint64
	traceID uint64
	ss      *session
	stream  uint32
	model   uint8
}

// reqChCap sizes the batcher's input channel: 512 incomings are 16 KB,
// the buffer NewServer has always allocated. The batcher drains the
// channel between batches, so read loops block on it only while the
// batcher waits on a session whose reply queue is full.
const reqChCap = 512

// NewServer binds the listener (so the port is known immediately) and
// starts the accept and batcher loops.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.GPU == nil {
		cfg.GPU = models.TeslaV100()
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = server.DefaultMaxBatch
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1
	}
	if cfg.TimeScale < 0 {
		return nil, errors.New("realnet: negative TimeScale")
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	} else if cfg.WriteTimeout < 0 {
		cfg.WriteTimeout = 0
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	} else if cfg.DrainTimeout < 0 {
		cfg.DrainTimeout = 0
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	instr := cfg.Instruments
	if instr == nil {
		instr = &ServerInstruments{}
	}
	s := &Server{
		cfg:      cfg,
		listener: ln,
		reqCh:    make(chan incoming, reqChCap),
		doneCh:   make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
		instr:    instr,
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.batchLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.listener.Addr() }

// SetExtraDelay changes the artificial per-batch delay used to emulate
// server degradation.
func (s *Server) SetExtraDelay(d time.Duration) { s.extraDelay.Store(int64(d)) }

// SetSlowdown sets the batch service-time multiplier — the live
// counterpart of the simulator's gpu_stall fault. Factors below 1 are
// clamped to 1; SetSlowdown(1) clears the stall.
func (s *Server) SetSlowdown(factor float64) {
	if factor < 1 {
		factor = 1
	}
	s.slowdown.Store(math.Float64bits(factor))
	s.instr.Slowdown.Set(factor)
}

// Slowdown returns the current batch service-time multiplier.
func (s *Server) Slowdown() float64 {
	bits := s.slowdown.Load()
	if bits == 0 {
		return 1
	}
	return math.Float64frombits(bits)
}

// Stats reports cumulative counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Submitted: s.stats.submitted.Load(),
		Completed: s.stats.completed.Load(),
		Rejected:  s.stats.rejected.Load(),
		Dropped:   s.stats.dropped.Load(),
		Batches:   s.stats.batches.Load(),
		ConnsShed: s.stats.connsShed.Load(),
	}
}

// Close shuts the server down gracefully: it stops accepting, waits up
// to DrainTimeout for already-submitted requests to reach a terminal
// outcome (so connected devices get their in-flight answers), then
// force-closes every connection, stops the loops and waits for all
// goroutines. Requests still unresolved after the grace period are
// dropped, never panicked on. Close is idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.closeErr = s.listener.Close()

		// Grace period: let the batcher finish what devices already
		// submitted. Live devices can keep submitting during the
		// grace window, so this is a bounded wait, not a guarantee.
		deadline := time.Now().Add(s.cfg.DrainTimeout)
		for time.Now().Before(deadline) {
			if s.pending.Load() == 0 {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}

		close(s.doneCh)
		s.connMu.Lock()
		s.closing = true
		for conn := range s.conns {
			conn.Close()
		}
		s.connMu.Unlock()
		s.readers.Wait()
		close(s.reqCh)
		s.wg.Wait()
	})
	return s.closeErr
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

// registerConn tracks a live connection so Close can unblock its read
// loop; it reports false when the server is already shutting down or
// the MaxConns accept guard sheds the connection.
func (s *Server) registerConn(conn net.Conn) (ok, shed bool) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.closing {
		return false, false
	}
	if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
		return false, true
	}
	s.conns[conn] = struct{}{}
	s.readers.Add(1)
	return true, false
}

func (s *Server) unregisterConn(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
}

// Conns reports the number of live device connections.
func (s *Server) Conns() int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return len(s.conns)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		// The accept guard runs here, before any goroutine or session
		// exists for the connection, so a flood costs one accept+close
		// per attempt and nothing else.
		ok, shed := s.registerConn(conn)
		if !ok {
			conn.Close()
			if shed {
				s.stats.connsShed.Add(1)
				s.instr.ConnsShed.Inc()
				s.logf("realnet: shed connection from %v (MaxConns=%d reached)", conn.RemoteAddr(), s.cfg.MaxConns)
			}
			continue
		}
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// handleConn reads requests from one device connection (already
// registered by the accept loop) and forwards them to the batcher.
// Responses travel through a session whose writer goroutine outlives
// this read loop until every in-flight reply has drained (see
// session).
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.unregisterConn(conn)
	s.logf("realnet: device connected from %v", conn.RemoteAddr())
	s.instr.Sessions.Add(1)
	defer s.instr.Sessions.Add(-1)

	ss := newSession(s, conn)
	s.wg.Add(1)
	go ss.writeLoop() // closes conn when the session is fully drained

	rd := netproto.NewReader(conn)
	var req netproto.Request
	for {
		if err := rd.ReadRequest(&req); err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.logf("realnet: read error from %v: %v", conn.RemoteAddr(), err)
			}
			break
		}
		s.stats.submitted.Add(1)
		s.instr.Submitted.Inc()
		ss.track()
		select {
		case s.reqCh <- incoming{stream: req.Stream, frameID: req.FrameID, traceID: req.TraceID, model: uint8(req.Model), ss: ss}:
		case <-s.doneCh:
			ss.untrack()
			s.stats.dropped.Add(1)
			s.instr.Dropped.Inc()
			goto drain
		}
	}
drain:
	s.readers.Done()
	timeout := s.cfg.DrainTimeout
	if s.cfg.DropOnDisconnect {
		timeout = 0
	}
	ss.drain(timeout)
	s.logf("realnet: device %v disconnected", conn.RemoteAddr())
}

// batchLoop is the wall-clock twin of the simulator's adaptive
// batcher: requests accumulate per model while the "GPU" sleeps
// through the previous batch; each new batch takes up to MaxBatch and
// rejects the rest of its queue.
func (s *Server) batchLoop() {
	defer s.wg.Done()
	queues := make(map[models.Model][]incoming)
	order := models.All()
	rrNext := 0

	// running is the executing batch (nil while the GPU is idle) and
	// exec the timer that ends it; the timer lives in this loop's
	// select, so a batch costs no goroutine. spare is the last
	// executed batch's backing array, kept for the next queue that
	// starts empty, so steady-state queues do not reallocate.
	var running, spare []incoming
	exec := time.NewTimer(time.Hour)
	exec.Stop()

	refuse := func(inc incoming) {
		inc.ss.reply(netproto.Response{FrameID: inc.frameID, Rejected: true, TraceID: inc.traceID})
	}

	// Per-tenant rejection accounting. Only this goroutine rejects, so
	// the map needs no lock; the exported counter is the CounterVec.
	rejByTenant := make(map[uint32]uint64)
	rejectOverflow := func(inc incoming) {
		s.stats.rejected.Add(1)
		tenant := inc.stream
		s.instr.Rejected.WithUint(uint64(tenant)).Inc()
		rejByTenant[tenant]++
		if n := s.cfg.RejectLogEvery; n > 0 && (rejByTenant[tenant]-1)%uint64(n) == 0 {
			s.logf("realnet: tenant %d: rejected frame %d (%d shed so far, logging every %d)",
				tenant, inc.frameID, rejByTenant[tenant], n)
		}
		refuse(inc)
	}

	startBatch := func() {
		var m models.Model
		found := false
		for i := 0; i < len(order); i++ {
			cand := order[(rrNext+i)%len(order)]
			if len(queues[cand]) > 0 {
				m = cand
				rrNext = (rrNext + i + 1) % len(order)
				found = true
				break
			}
		}
		if !found {
			return
		}
		q := queues[m]
		s.instr.QueueDepth.Observe(float64(len(q)))
		take := len(q)
		if take > s.cfg.MaxBatch {
			take = s.cfg.MaxBatch
		}
		running = q[:take]
		for _, inc := range q[take:] {
			rejectOverflow(inc)
		}
		queues[m] = nil

		lat := time.Duration(float64(s.cfg.GPU.Curve(m).Latency(take)) * s.cfg.TimeScale * s.Slowdown())
		lat += time.Duration(s.extraDelay.Load())
		s.stats.batches.Add(1)
		s.instr.Batches.Inc()
		// exec is stopped or fired and drained here, so Reset is safe.
		exec.Reset(lat)
	}

	// shutdown refuses every request that will never execute; reply()
	// accounts them as dropped when nobody can receive them. Every
	// tracked request must reach its reply() call or session drains
	// would deadlock. A read loop may still forward a request it
	// decoded just before Close began, so arrivals are refused too
	// until Close closes reqCh behind the last read loop.
	shutdown := func() {
		exec.Stop()
		for _, inc := range running {
			refuse(inc)
		}
		for _, q := range queues {
			for _, inc := range q {
				refuse(inc)
			}
		}
		for inc := range s.reqCh {
			refuse(inc)
		}
	}

	for {
		select {
		case inc, ok := <-s.reqCh:
			if !ok { // Close closes reqCh only after doneCh
				shutdown()
				return
			}
			m := models.Model(inc.model)
			q := queues[m]
			if q == nil {
				q, spare = spare, nil
			}
			queues[m] = append(q, inc)
			if running == nil {
				startBatch()
			}
		case <-exec.C:
			n := uint16(len(running))
			for _, inc := range running {
				s.stats.completed.Add(1)
				s.instr.Completed.Inc()
				s.instr.BatchSize.WithUint(uint64(inc.stream)).Observe(float64(n))
				inc.ss.reply(netproto.Response{
					FrameID:   inc.frameID,
					Label:     int32(inc.frameID % 1000),
					BatchSize: n,
					TraceID:   inc.traceID,
				})
			}
			clear(running[:cap(running)]) // drop the session references
			spare, running = running[:0], nil
			startBatch()
		case <-s.doneCh:
			shutdown()
			return
		}
	}
}
