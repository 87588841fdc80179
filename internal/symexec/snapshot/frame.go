package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Wire framing for the dispatch socket protocol and checkpoint files. A
// frame is:
//
//	[1 type byte][uvarint payload length][payload][4-byte CRC32 LE]
//
// where the checksum covers the type byte and the payload. The length is
// bounded by MaxFramePayload, so a corrupt length cannot make a reader
// allocate unbounded memory, and the trailing checksum rejects torn or
// bit-flipped frames before any payload decoding runs.

// MaxFramePayload bounds a frame's payload (256 MiB); anything larger is
// treated as corruption.
const MaxFramePayload = 1 << 28

// Frame type bytes. Values below 0x10 are reserved for the transport
// (handshake, results, errors); application unit kinds start at 0x10.
const (
	FrameHello    byte = 0x01
	FrameHelloAck byte = 0x02
	FrameResult   byte = 0x03
	FrameError    byte = 0x04

	// FrameAttemptUnit ships one whole candidate-verification attempt,
	// the only unit kind a dispatch worker serves.
	FrameAttemptUnit byte = 0x10

	// FrameCheckpoint is the single frame of a checkpoint (.ssnap) file.
	FrameCheckpoint byte = 0x20
)

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("snapshot: frame payload %d exceeds limit %d", len(payload), MaxFramePayload)
	}
	hdr := make([]byte, 1, 1+binary.MaxVarintLen64)
	hdr[0] = typ
	hdr = binary.AppendUvarint(hdr, uint64(len(payload)))
	crc := crc32.NewIEEE()
	crc.Write(hdr[:1])
	crc.Write(payload)
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	_, err := w.Write(sum[:])
	return err
}

// ReadFrame reads one frame from r. A clean end-of-stream before the first
// byte returns io.EOF; a stream that ends mid-frame returns
// io.ErrUnexpectedEOF (a torn frame); a checksum or length violation
// returns a descriptive error. The payload is freshly allocated.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	var typ [1]byte
	if _, err := io.ReadFull(r, typ[:]); err != nil {
		return 0, nil, err // io.EOF at a frame boundary is the clean shutdown signal
	}
	n, err := readUvarint(r)
	if err != nil {
		return 0, nil, torn(err)
	}
	if n > MaxFramePayload {
		return 0, nil, fmt.Errorf("snapshot: frame length %d exceeds limit %d (corrupt frame)", n, MaxFramePayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, torn(err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return 0, nil, torn(err)
	}
	crc := crc32.NewIEEE()
	crc.Write(typ[:])
	crc.Write(payload)
	if got := crc.Sum32(); got != binary.LittleEndian.Uint32(sum[:]) {
		return 0, nil, fmt.Errorf("snapshot: frame checksum mismatch (%#x != %#x)", got, binary.LittleEndian.Uint32(sum[:]))
	}
	return typ[0], payload, nil
}

// torn maps any mid-frame read error to io.ErrUnexpectedEOF-flavored
// corruption while keeping the underlying error visible.
func torn(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readUvarint decodes a uvarint byte-by-byte from r (bounded at 10 bytes,
// like binary.ReadUvarint, without requiring an io.ByteReader).
func readUvarint(r io.Reader) (uint64, error) {
	var v uint64
	var b [1]byte
	for shift := uint(0); shift < 64; shift += 7 {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return 0, err
		}
		v |= uint64(b[0]&0x7f) << shift
		if b[0] < 0x80 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("snapshot: uvarint overflow")
}
