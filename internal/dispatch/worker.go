package dispatch

import (
	"fmt"
	"io"
	"net"

	"repro/internal/symexec/snapshot"
)

// Runner executes one work unit on the worker side: typ is the
// application frame type (FrameAttemptUnit), payload its serialized body,
// and the returned bytes become the FrameResult payload. An error is
// reported to the coordinator as a FrameError; the worker connection
// stays up (a unit that fails to decode must not take the worker down
// with it).
type Runner func(typ byte, payload []byte) ([]byte, error)

// Serve accepts coordinator connections on l and processes their units
// with run until the listener closes. Each connection is served on its own
// goroutine; a malformed or torn stream closes that connection only.
func Serve(l net.Listener, run Runner) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return err
		}
		go func() {
			defer conn.Close()
			serveConn(conn, run)
		}()
	}
}

// serveConn speaks the protocol on one connection: handshake, then a
// unit/result loop until clean EOF or the first transport error.
func serveConn(conn net.Conn, run Runner) error {
	typ, payload, err := snapshot.ReadFrame(conn)
	if err != nil {
		return err
	}
	if typ != snapshot.FrameHello || string(payload) != Magic {
		snapshot.WriteFrame(conn, snapshot.FrameError,
			[]byte(fmt.Sprintf("handshake mismatch: want %q", Magic)))
		return fmt.Errorf("dispatch: handshake mismatch (frame %#x)", typ)
	}
	if err := snapshot.WriteFrame(conn, snapshot.FrameHelloAck, []byte(Magic)); err != nil {
		return err
	}
	for {
		typ, payload, err := snapshot.ReadFrame(conn)
		if err != nil {
			if err == io.EOF {
				return nil // coordinator closed cleanly between units
			}
			return err
		}
		if typ < 0x10 {
			return fmt.Errorf("dispatch: unexpected transport frame %#x mid-stream", typ)
		}
		out, rerr := run(typ, payload)
		if rerr != nil {
			if err := snapshot.WriteFrame(conn, snapshot.FrameError, []byte(rerr.Error())); err != nil {
				return err
			}
			continue
		}
		if err := snapshot.WriteFrame(conn, snapshot.FrameResult, out); err != nil {
			return err
		}
	}
}
