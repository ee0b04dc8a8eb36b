package realnet

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/baselines"
	"repro/internal/controller"
	"repro/internal/netproto"
	"repro/internal/telemetry"
)

// Fault-injection tests: connections die mid-batch, servers restart
// mid-run, and the transport must degrade — never panic, never wedge.

// floodRaw writes n well-formed requests on a raw connection.
func floodRaw(t *testing.T, conn net.Conn, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		req := &netproto.Request{
			Stream:           7,
			FrameID:          uint64(i),
			Model:            0, // default model is valid
			CapturedUnixNano: time.Now().UnixNano(),
			Payload:          make([]byte, 1024),
		}
		if err := netproto.WriteRequest(conn, req); err != nil {
			t.Fatalf("flood write %d: %v", i, err)
		}
	}
}

// TestServerSurvivesMidBatchDisconnect is the regression test for the
// send-on-closed-channel crash: a device floods a batch, hard-closes
// its socket while the batch is still executing, and the server must
// finish the batch, drop the unanswerable replies, and keep serving
// other connections. Against the pre-session server this panics
// (reply() raced the read loop's close(respCh)).
//
// Deliberately uses only the seed-era API surface so it can be run
// unmodified against the old implementation.
func TestServerSurvivesMidBatchDisconnect(t *testing.T) {
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", TimeScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Slow batches down so the disconnect lands mid-execution.
	srv.SetExtraDelay(150 * time.Millisecond)

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	floodRaw(t, conn, 25)
	time.Sleep(30 * time.Millisecond) // first batch is now executing
	conn.Close()                      // hard disconnect with frames in flight

	// Let every in-flight batch complete and its replies resolve; the
	// old server panics (crashing the test binary) inside this window.
	time.Sleep(800 * time.Millisecond)

	// The server must still serve a legitimate client.
	srv.SetExtraDelay(0)
	c, err := Dial(ClientConfig{
		Addr: srv.Addr().String(), FS: 60, TimeScale: 0.1,
		Tick: 100 * time.Millisecond, Deadline: 60 * time.Millisecond,
		Policy: baselines.AlwaysOffload{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetOffloadRate(60)
	time.Sleep(600 * time.Millisecond)
	if st := c.Stats(); st.OffloadOK == 0 {
		t.Fatalf("server unhealthy after mid-batch disconnect: %+v", st)
	}
}

// TestMidBatchDisconnectAccounting checks the drain bookkeeping: every
// submitted request still reaches exactly one execution outcome
// (completed or rejected) when the device vanishes, and the replies
// that could not be written are visible in the Dropped counter.
func TestMidBatchDisconnectAccounting(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", TimeScale: 0.1,
		DrainTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetExtraDelay(100 * time.Millisecond)

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	floodRaw(t, conn, 20)
	time.Sleep(20 * time.Millisecond)
	conn.Close()

	deadline := time.Now().Add(3 * time.Second)
	for {
		st := srv.Stats()
		if st.Submitted == 20 && st.Completed+st.Rejected == 20 {
			if st.Dropped == 0 {
				t.Fatalf("expected some dropped replies after disconnect: %+v", st)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("requests never settled: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClientReconnectsAfterServerRestart kills the server mid-run and
// restarts it on the same port: the client must reconnect on its own
// and FrameFeedback must recover P_o > 0 without a process restart —
// the paper's §V network-degradation scenario at the socket level.
func TestClientReconnectsAfterServerRestart(t *testing.T) {
	srv := startServer(t)
	addr := srv.Addr().String()
	fb := controller.NewFrameFeedback(controller.Config{InitialPo: 60})
	c := dial(t, srv, ClientConfig{
		FS: 60, Policy: fb,
		ReconnectMin: 20 * time.Millisecond,
		ReconnectMax: 100 * time.Millisecond,
	})
	c.SetOffloadRate(60)
	time.Sleep(500 * time.Millisecond)
	if st := c.Stats(); st.OffloadOK == 0 {
		t.Fatalf("no offloads before the outage: %+v", st)
	}

	// Outage: the server dies with the client mid-stream.
	if err := srv.Close(); err != nil {
		t.Logf("server close: %v", err)
	}
	time.Sleep(800 * time.Millisecond)
	outagePo := c.Po()
	if outagePo > 30 {
		t.Fatalf("controller did not back off during outage: Po=%v", outagePo)
	}
	if st := c.Stats(); st.Disconnects == 0 {
		t.Fatalf("client never observed the disconnect: %+v", st)
	}

	// Restart on the same port (retry: the OS may briefly hold it).
	var srv2 *Server
	var err error
	for i := 0; i < 50; i++ {
		srv2, err = NewServer(ServerConfig{Addr: addr, TimeScale: fastScale})
		if err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("could not restart server on %s: %v", addr, err)
	}
	t.Cleanup(func() { srv2.Close() })

	before := c.Stats()
	time.Sleep(2 * time.Second)
	after := c.Stats()
	if after.Reconnects == 0 {
		t.Fatalf("client never reconnected: %+v", after)
	}
	if gained := after.OffloadOK - before.OffloadOK; gained < 10 {
		t.Fatalf("only %d successful offloads after server restart", gained)
	}
	if po := c.Po(); po <= outagePo {
		t.Fatalf("controller did not recover after reconnect: %v -> %v", outagePo, po)
	}
}

// TestDisconnectedOffloadsCountAsTimeouts: with the server gone and
// reconnection effectively impossible, every offload attempt must
// resolve as a timeout immediately, keeping T > 0 so the controller
// settles at its standing-probe equilibrium instead of freezing.
func TestDisconnectedOffloadsCountAsTimeouts(t *testing.T) {
	srv := startServer(t)
	fb := controller.NewFrameFeedback(controller.Config{InitialPo: 60})
	c := dial(t, srv, ClientConfig{
		FS: 60, Policy: fb,
		ReconnectMin: 20 * time.Millisecond,
		ReconnectMax: 100 * time.Millisecond,
	})
	c.SetOffloadRate(60)
	time.Sleep(400 * time.Millisecond)
	srv.Close() // outage with no recovery

	before := c.Stats()
	time.Sleep(time.Second)
	after := c.Stats()
	if gained := after.OffloadAttempts - before.OffloadAttempts; gained == 0 {
		t.Fatal("controller stopped attempting offloads during the outage (no standing probe)")
	}
	if after.Timeouts() == before.Timeouts() {
		t.Fatalf("disconnected offloads were not accounted as timeouts: %+v", after)
	}
	// The equilibrium keeps Po small but nonzero pressure exists; it
	// must not exceed the tolerated band by much.
	if po := c.Po(); po > 20 {
		t.Fatalf("Po = %v during a total outage, want near 0.1*FS", po)
	}
}

// TestClientCloseConcurrent: Close used to race close(stopCh) against
// itself; with sync.Once any number of concurrent Closes is safe.
func TestClientCloseConcurrent(t *testing.T) {
	srv := startServer(t)
	c, err := Dial(ClientConfig{
		Addr: srv.Addr().String(), FS: 30, TimeScale: fastScale,
		Policy: baselines.AlwaysOffload{},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Close()
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("concurrent Close deadlocked")
	}
}

// TestDeadlineSweepFinerThanTick: with a 1 s tick and a 100 ms
// deadline, timed-out frames must be detected on the finer sweep
// timer, not up to ~900 ms late at the next tick.
func TestDeadlineSweepFinerThanTick(t *testing.T) {
	// A listener that accepts and then ignores everything: offloads
	// are swallowed, never answered.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						conn.Close()
						return
					}
				}
			}()
		}
	}()

	c, err := Dial(ClientConfig{
		Addr: ln.Addr().String(), FS: 60, TimeScale: fastScale,
		Tick:     time.Second,
		Deadline: 100 * time.Millisecond,
		Policy:   baselines.AlwaysOffload{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetOffloadRate(60)

	// First frames go out within ~50 ms and pass their 100 ms
	// deadline by ~150 ms. Well before the 1 s tick they must already
	// be counted.
	deadline := time.Now().Add(600 * time.Millisecond)
	for time.Now().Before(deadline) {
		if c.Stats().OffloadTimedOut > 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no timeout counted within 600 ms (sweep still quantized to the tick?): %+v", c.Stats())
}

// stallConn is a writeDeadlineConn whose writes always fail with a
// timeout once a deadline has been set — a device that stopped
// reading, as seen by the writer after the kernel buffer filled.
type stallConn struct {
	mu        sync.Mutex
	deadlines int
	writes    int
	closed    bool
}

type timeoutErr struct{}

func (timeoutErr) Error() string { return "i/o timeout" }
func (timeoutErr) Timeout() bool { return true }

func (s *stallConn) Write(b []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes++
	if s.deadlines == 0 {
		// Without a deadline this fake would block forever; failing
		// the test is more useful than hanging it.
		return 0, errors.New("write without deadline")
	}
	return 0, timeoutErr{}
}

func (s *stallConn) SetWriteDeadline(time.Time) error {
	s.mu.Lock()
	s.deadlines++
	s.mu.Unlock()
	return nil
}

func (s *stallConn) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return nil
}

// TestSessionWriteTimeoutAbortsStalledDevice drives a session directly
// with a stalled connection: the writer must apply a deadline, abort
// on the failed write, drop the remaining replies, and drain without
// wedging.
func TestSessionWriteTimeoutAbortsStalledDevice(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", TimeScale: fastScale,
		WriteTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn := &stallConn{}
	ss := newSession(srv, conn)
	srv.wg.Add(1)
	writerDone := make(chan struct{})
	go func() {
		ss.writeLoop()
		close(writerDone)
	}()

	const n = 10
	for i := 0; i < n; i++ {
		ss.track()
		go ss.reply(netproto.Response{FrameID: uint64(i)})
	}
	done := make(chan struct{})
	go func() {
		ss.drain(time.Second)
		// drain only closes respCh; join the writer so the assertions
		// see everything it did.
		<-writerDone
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("session drain wedged behind a stalled device")
	}
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if conn.deadlines == 0 {
		t.Fatal("writer never set a write deadline")
	}
	if !conn.closed {
		t.Fatal("stalled connection was not closed")
	}
	if got := srv.Stats().Dropped; got != n {
		t.Fatalf("%d replies counted as dropped, want all %d", got, n)
	}
}

// TestCoalescedWriteFailureCountsEveryReply: replies queued together
// go out in one write, and when that write fails every reply in it is
// counted as dropped, not just one.
func TestCoalescedWriteFailureCountsEveryReply(t *testing.T) {
	instr := NewServerInstruments(telemetry.NewRegistry())
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", TimeScale: fastScale, Instruments: instr,
		WriteTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn := &stallConn{}
	ss := newSession(srv, conn)
	const k = 7
	for i := 0; i < k; i++ {
		ss.track()
		ss.reply(netproto.Response{FrameID: uint64(i)})
	}
	close(ss.respCh)
	srv.wg.Add(1)
	ss.writeLoop()

	conn.mu.Lock()
	writes := conn.writes
	conn.mu.Unlock()
	if writes != 1 {
		t.Fatalf("%d queued replies went out in %d writes, want 1", k, writes)
	}
	if got := srv.Stats().Dropped; got != k {
		t.Fatalf("Dropped = %d, want %d", got, k)
	}
	if got := instr.WriteDrops.Value(); got != k {
		t.Fatalf("WriteDrops = %d, want %d", got, k)
	}
	if got := instr.Dropped.Value(); got != k {
		t.Fatalf("Dropped instrument = %d, want %d", got, k)
	}
}

// countConn is a writeDeadlineConn that accepts every write and
// reports its size.
type countConn struct{ wrote chan int }

func (c *countConn) Write(b []byte) (int, error) {
	c.wrote <- len(b)
	return len(b), nil
}
func (c *countConn) SetWriteDeadline(time.Time) error { return nil }
func (c *countConn) Close() error                     { return nil }

// TestSessionReplyWriteZeroAlloc pins the reply path — batcher reply,
// channel hand-off, writer encode and write — at 0 allocations.
func TestSessionReplyWriteZeroAlloc(t *testing.T) {
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", TimeScale: fastScale})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := &countConn{wrote: make(chan int)}
	ss := newSession(srv, conn)
	srv.wg.Add(1)
	go ss.writeLoop()
	defer ss.drain(0)

	res := netproto.Response{FrameID: 5, Label: 5, BatchSize: 3, TraceID: 9}
	roundTrip := func() {
		ss.track()
		ss.reply(res)
		if n := <-conn.wrote; n == 0 {
			t.Fatal("empty write")
		}
	}
	for i := 0; i < 8; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(500, roundTrip); allocs != 0 {
		t.Fatalf("reply -> write allocates %.1f objects/reply, want 0", allocs)
	}
}

// TestBatcherChannelBytes: the batcher's input channel is allocated
// by NewServer, before any device connects, so it must stay at 16 KB.
func TestBatcherChannelBytes(t *testing.T) {
	if got := unsafe.Sizeof(incoming{}) * reqChCap; got != 16<<10 {
		t.Fatalf("batcher channel buffer is %d B, want %d", got, 16<<10)
	}
}

// TestCloseWhileDeviceFloods: Close must return while a device keeps
// streaming. A read loop can forward a request it decoded just before
// shutdown; the batcher must still resolve it, or that session's drain
// waits for its reply forever and Close waits with it.
func TestCloseWhileDeviceFloods(t *testing.T) {
	msg, err := netproto.AppendRequest(nil, &netproto.Request{Payload: make([]byte, 16)})
	if err != nil {
		t.Fatal(err)
	}
	burst := bytes.Repeat(msg, 64)
	for i := 0; i < 5; i++ {
		srv, err := NewServer(ServerConfig{
			Addr: "127.0.0.1:0", TimeScale: fastScale, DrainTimeout: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for {
				if _, err := conn.Write(burst); err != nil {
					return
				}
			}
		}()
		for srv.Stats().Submitted < 1000 {
			runtime.Gosched()
		}
		done := make(chan struct{})
		go func() {
			srv.Close()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: Close hung while the device was still sending", i)
		}
		conn.Close()
	}
}

// TestServerCloseIsIdempotent: double Close must not panic or block.
func TestServerCloseIsIdempotent(t *testing.T) {
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", TimeScale: fastScale})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	done := make(chan struct{})
	go func() {
		srv.Close()
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("repeated Close blocked")
	}
}
