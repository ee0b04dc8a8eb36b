package realnet

import (
	"errors"
	"net"
	"sync"
	"time"

	"repro/internal/netproto"
)

// session is the server side of one device connection. It decouples
// the lifetime of the response writer from the lifetime of the read
// loop: a device that disconnects with frames still queued or
// executing must not crash the server, so the writer (and the response
// channel feeding it) stays alive until every in-flight reply for this
// session has either been written, failed, or been deliberately
// dropped — never sent on a closed channel.
//
// Lifecycle:
//
//  1. The read loop registers each forwarded request with track();
//     the batcher eventually calls reply() exactly once per request,
//     which untracks it. A request the read loop cannot forward
//     (server shutdown) is untracked there instead.
//  2. When the read loop ends (disconnect or server shutdown), drain()
//     waits up to the drain timeout for inflight to reach zero, then
//     aborts stragglers (their replies are counted as dropped) and
//     closes respCh.
//  3. writeLoop consumes respCh until it is closed, coalescing the
//     replies already queued into one write. Each write carries a
//     deadline so one stalled device cannot wedge its writer
//     goroutine; a write failure aborts the session so pending replies
//     stop queueing up behind a dead socket.
//
// reply() only ever sends to respCh while inflight is nonzero, and
// respCh is only closed after inflight has drained, so the
// send-on-closed-channel panic of the pre-session design is
// structurally impossible.
type session struct {
	srv  *Server
	conn writeDeadlineConn

	respCh chan netproto.Response

	// aborted is closed when replies should be discarded instead of
	// queued: after a write failure, a drain timeout, or server
	// shutdown.
	aborted   chan struct{}
	abortOnce sync.Once

	// inflight counts requests forwarded to the batcher whose reply
	// callback has not run yet.
	inflight sync.WaitGroup
}

// maxCoalesce caps how many queued replies writeLoop packs into one
// write.
const maxCoalesce = 64

// writeDeadlineConn is the slice of net.Conn the writer needs; tests
// can substitute stalled fakes.
type writeDeadlineConn interface {
	Write([]byte) (int, error)
	SetWriteDeadline(time.Time) error
	Close() error
}

func newSession(srv *Server, conn writeDeadlineConn) *session {
	return &session{
		srv:     srv,
		conn:    conn,
		respCh:  make(chan netproto.Response, 256),
		aborted: make(chan struct{}),
	}
}

// abort marks the session dead: pending and future replies are dropped
// instead of queued.
func (ss *session) abort() {
	ss.abortOnce.Do(func() { close(ss.aborted) })
}

// track registers one in-flight request with the session and the
// server's pending count. The batcher must call reply exactly once for
// it, or the read loop untrack if the request never reached the
// batcher.
func (ss *session) track() {
	ss.srv.pending.Add(1)
	ss.inflight.Add(1)
}

// untrack retires one tracked request.
func (ss *session) untrack() {
	ss.srv.pending.Add(-1)
	ss.inflight.Done()
}

// reply hands one response to the writer, or drops it if the session
// is dead or the server is shutting down. Safe to call from the
// batcher at any time relative to the device disconnecting.
func (ss *session) reply(r netproto.Response) {
	defer ss.untrack()
	select {
	case ss.respCh <- r:
	case <-ss.aborted:
		ss.srv.stats.dropped.Add(1)
		ss.srv.instr.Dropped.Inc()
	case <-ss.srv.doneCh:
		ss.srv.stats.dropped.Add(1)
		ss.srv.instr.Dropped.Inc()
	}
}

// writeLoop serializes responses onto the connection until respCh is
// closed. Each reply is appended to one reused buffer together with
// every reply already queued behind it (up to maxCoalesce), and the
// lot goes out in a single write. Each write carries a deadline so a
// device that stops reading cannot block this goroutine forever; on
// any write error the session aborts, and every reply in the failed
// write and after it is counted as dropped.
func (ss *session) writeLoop() {
	defer ss.srv.wg.Done()
	defer ss.conn.Close()
	var buf []byte
	failed := false
	for r := range ss.respCh {
		if failed {
			ss.writeDrops(1)
			continue
		}
		buf = netproto.AppendResponse(buf[:0], &r)
		n := 1
	coalesce:
		for n < maxCoalesce {
			select {
			case next, ok := <-ss.respCh:
				if !ok {
					break coalesce
				}
				buf = netproto.AppendResponse(buf, &next)
				n++
			default:
				break coalesce
			}
		}
		if wt := ss.srv.cfg.WriteTimeout; wt > 0 {
			ss.conn.SetWriteDeadline(time.Now().Add(wt))
		}
		if _, err := ss.conn.Write(buf); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				ss.srv.instr.WriteTimeouts.Inc()
			}
			ss.srv.logf("realnet: write failed, aborting session: %v", err)
			ss.writeDrops(n)
			ss.abort()
			// The session is dead either way; closing the socket now
			// unblocks the read loop so the drain can start.
			ss.conn.Close()
			failed = true
		}
	}
}

// writeDrops accounts n replies the writer discarded: they were in a
// failed write or queued behind one.
func (ss *session) writeDrops(n int) {
	ss.srv.stats.dropped.Add(uint64(n))
	ss.srv.instr.Dropped.Add(uint64(n))
	ss.srv.instr.WriteDrops.Add(uint64(n))
}

// drain completes the session after the read loop ends: it waits up to
// timeout for every in-flight reply to be delivered to the writer,
// aborts whatever remains, and then — once no sender can touch respCh
// again — closes it so the writer exits after flushing.
func (ss *session) drain(timeout time.Duration) {
	settled := make(chan struct{})
	go func() {
		ss.inflight.Wait()
		close(settled)
	}()
	if timeout > 0 {
		t := time.NewTimer(timeout)
		select {
		case <-settled:
		case <-t.C:
			ss.abort()
		case <-ss.srv.doneCh:
			ss.abort()
		}
		t.Stop()
	}
	ss.abort() // timeout <= 0: drop immediately rather than wait
	<-settled
	close(ss.respCh)
}
