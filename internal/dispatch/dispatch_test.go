package dispatch

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/symexec/snapshot"
)

// startWorker serves run on a unix socket in a temp dir, returning its
// address and the listener (close it to stop the worker).
func startWorker(t *testing.T, run Runner) (string, net.Listener) {
	t.Helper()
	addr := filepath.Join(t.TempDir(), "worker.sock")
	l, err := Listen(addr)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go Serve(l, run)
	t.Cleanup(func() { l.Close() })
	return addr, l
}

func TestSplitAddr(t *testing.T) {
	cases := []struct{ in, net, addr string }{
		{"unix:/tmp/w.sock", "unix", "/tmp/w.sock"},
		{"/tmp/w.sock", "unix", "/tmp/w.sock"},
		{"tcp:127.0.0.1:9000", "tcp", "127.0.0.1:9000"},
		{"127.0.0.1:9000", "tcp", "127.0.0.1:9000"},
		{"localhost:7", "tcp", "localhost:7"},
	}
	for _, c := range cases {
		n, a := SplitAddr(c.in)
		if n != c.net || a != c.addr {
			t.Errorf("SplitAddr(%q) = (%q, %q), want (%q, %q)", c.in, n, a, c.net, c.addr)
		}
	}
}

func TestUnitRoundTrip(t *testing.T) {
	addr, _ := startWorker(t, func(typ byte, payload []byte) ([]byte, error) {
		return append([]byte{typ}, payload...), nil
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		payload := []byte(fmt.Sprintf("unit-%d", i))
		out, err := c.Do(snapshot.FrameAttemptUnit, payload, time.Minute)
		if err != nil {
			t.Fatalf("Do[%d]: %v", i, err)
		}
		want := append([]byte{snapshot.FrameAttemptUnit}, payload...)
		if !bytes.Equal(out, want) {
			t.Fatalf("Do[%d] = %q, want %q", i, out, want)
		}
	}
}

func TestUnitErrorKeepsClientAlive(t *testing.T) {
	addr, _ := startWorker(t, func(typ byte, payload []byte) ([]byte, error) {
		if len(payload) == 0 {
			return nil, fmt.Errorf("empty unit")
		}
		return payload, nil
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do(snapshot.FrameAttemptUnit, nil, time.Minute); err == nil || !strings.Contains(err.Error(), "empty unit") {
		t.Fatalf("unit error = %v, want empty-unit failure", err)
	}
	if c.Dead() != nil {
		t.Fatalf("client died on a unit error: %v", c.Dead())
	}
	if out, err := c.Do(snapshot.FrameAttemptUnit, []byte("ok"), time.Minute); err != nil || string(out) != "ok" {
		t.Fatalf("follow-up unit = %q, %v", out, err)
	}
}

// TestWorkerCrashMidUnit simulates a worker dying after accepting a unit
// (connection drops with no reply): the client must surface an error
// promptly and stay dead.
func TestWorkerCrashMidUnit(t *testing.T) {
	addr := filepath.Join(t.TempDir(), "crash.sock")
	l, err := Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		snapshot.ReadFrame(conn) // hello
		snapshot.WriteFrame(conn, snapshot.FrameHelloAck, []byte(Magic))
		snapshot.ReadFrame(conn) // accept the unit...
		conn.Close()             // ...and "crash"
	}()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(snapshot.FrameAttemptUnit, []byte("x"), time.Minute); err == nil {
		t.Fatal("Do succeeded against a crashed worker")
	}
	if c.Dead() == nil {
		t.Fatal("client still healthy after worker crash")
	}
}

func TestUnitDeadlineKillsClient(t *testing.T) {
	addr, _ := startWorker(t, func(typ byte, payload []byte) ([]byte, error) {
		time.Sleep(5 * time.Second)
		return payload, nil
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = c.Do(snapshot.FrameAttemptUnit, []byte("x"), 150*time.Millisecond)
	if err == nil {
		t.Fatal("Do met a 150ms deadline against a 5s worker")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
	if c.Dead() == nil {
		t.Fatal("client still healthy after a missed deadline")
	}
	if _, err := c.Do(snapshot.FrameAttemptUnit, []byte("y"), time.Minute); err == nil {
		t.Fatal("dead client accepted another unit")
	}
}

func TestHandshakeMismatchRejected(t *testing.T) {
	addr := filepath.Join(t.TempDir(), "raw.sock")
	l, err := Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// A "worker" speaking a different protocol version.
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		snapshot.ReadFrame(conn)
		snapshot.WriteFrame(conn, snapshot.FrameHelloAck, []byte("statsym-dispatch/999"))
	}()
	if _, err := Dial(addr); err == nil || !strings.Contains(err.Error(), "statsym-dispatch/999") {
		t.Fatalf("Dial = %v, want version mismatch", err)
	}
}

func TestServerRejectsBadMagic(t *testing.T) {
	addr, _ := startWorker(t, func(typ byte, payload []byte) ([]byte, error) { return payload, nil })
	network, address := SplitAddr(addr)
	conn, err := net.Dial(network, address)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := snapshot.WriteFrame(conn, snapshot.FrameHello, []byte("not-the-magic")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := snapshot.ReadFrame(conn)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if typ != snapshot.FrameError || !strings.Contains(string(payload), "handshake mismatch") {
		t.Fatalf("server reply = (%#x, %q), want handshake-mismatch error", typ, payload)
	}
}

func TestTornStreamKillsClient(t *testing.T) {
	addr := filepath.Join(t.TempDir(), "torn.sock")
	l, err := Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		snapshot.ReadFrame(conn) // hello
		snapshot.WriteFrame(conn, snapshot.FrameHelloAck, []byte(Magic))
		snapshot.ReadFrame(conn) // the unit
		// Write half a result frame, then slam the connection shut.
		var buf bytes.Buffer
		snapshot.WriteFrame(&buf, snapshot.FrameResult, bytes.Repeat([]byte{0xAA}, 64))
		conn.Write(buf.Bytes()[:buf.Len()/2])
		conn.Close()
	}()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(snapshot.FrameAttemptUnit, []byte("x"), time.Minute); err == nil {
		t.Fatal("torn result frame accepted")
	}
	if c.Dead() == nil {
		t.Fatal("client survived a torn stream")
	}
}

// TestParseAddrs: comma-separated address lists trim entries and drop
// blanks, leaving each address's own syntax to SplitAddr.
func TestParseAddrs(t *testing.T) {
	got := ParseAddrs(" unix:/tmp/a.sock, ,tcp:h:1,/tmp/b.sock ,")
	want := []string{"unix:/tmp/a.sock", "tcp:h:1", "/tmp/b.sock"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ParseAddrs = %q, want %q", got, want)
	}
	if got := ParseAddrs(""); got != nil {
		t.Errorf("ParseAddrs(\"\") = %q, want nil", got)
	}
}
