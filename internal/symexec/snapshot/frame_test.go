package snapshot

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := map[byte][]byte{
		FrameHello:       []byte("hello"),
		FrameAttemptUnit: bytes.Repeat([]byte{0x5A}, 300), // multi-byte length varint
		FrameResult:      nil,                             // empty payload is legal
	}
	order := []byte{FrameHello, FrameAttemptUnit, FrameResult}
	for _, typ := range order {
		if err := WriteFrame(&buf, typ, payloads[typ]); err != nil {
			t.Fatalf("WriteFrame(%#x): %v", typ, err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for _, want := range order {
		typ, payload, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if typ != want || !bytes.Equal(payload, payloads[want]) {
			t.Fatalf("frame = (%#x, %d bytes), want (%#x, %d bytes)", typ, len(payload), want, len(payloads[want]))
		}
	}
	if _, _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("end of stream = %v, want io.EOF", err)
	}
}

func TestFrameTornRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameAttemptUnit, []byte("some payload bytes")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	// Every proper prefix that is at least one byte long is a torn frame.
	for cut := 1; cut < len(whole); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(whole[:cut]))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestFrameCorruptionRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameCheckpoint, []byte("checkpoint payload")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	// Flip one bit in every byte position; each must fail (the type byte
	// and payload are covered by the CRC; a corrupted length either breaks
	// the CRC, tears the frame, or trips the size limit).
	for i := range whole {
		bad := append([]byte(nil), whole...)
		bad[i] ^= 0x40
		if _, _, err := ReadFrame(bytes.NewReader(bad)); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
}

func TestFrameChecksumMismatchMessage(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameError, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	bad := buf.Bytes()
	bad[1+1] ^= 0xFF // corrupt the first payload byte, leaving lengths intact
	_, _, err := ReadFrame(bytes.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("err = %v, want checksum mismatch", err)
	}
}

func TestFrameOversizeLengthRejected(t *testing.T) {
	// Hand-craft a header claiming a payload beyond MaxFramePayload.
	var buf bytes.Buffer
	buf.WriteByte(FrameHello)
	// uvarint of MaxFramePayload+1
	v := uint64(MaxFramePayload + 1)
	for v >= 0x80 {
		buf.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	buf.WriteByte(byte(v))
	_, _, err := ReadFrame(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("err = %v, want length-limit rejection", err)
	}
	if err := WriteFrame(io.Discard, FrameHello, make([]byte, MaxFramePayload+1)); err == nil {
		t.Fatal("oversize write accepted")
	}
}

func TestFrameGarbageStream(t *testing.T) {
	// A stream of random-ish garbage must error out, not panic or succeed.
	garbage := []byte{0x99, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}
	if _, _, err := ReadFrame(bytes.NewReader(garbage)); err == nil {
		t.Fatal("garbage stream accepted")
	}
}
