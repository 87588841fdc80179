package corpus

// The generic framed-block segment layer, below the shared store layer
// (store.go). Every store kind's segments use the same framing: a
// magic-tagged segment file accumulates CRC'd gzip blocks, ends with a
// JSON footer blob plus a fixed-size trailer (footer CRC32, footer length,
// trailer magic), and becomes visible only when the finished temp file is
// fsynced and renamed into place. Everything in this file is
// format-agnostic — record encoding, dictionaries, and footer schemas stay
// with each kind.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/durable"
)

// TrailerSize is the fixed byte length of a segment trailer: CRC32 of the
// footer blob, footer length, and an 8-byte trailer magic.
const TrailerSize = 4 + 8 + 8

// BlockFrame is one compressed block's index entry: where it sits in the
// file and how to check and decode it. Footer schemas embed or copy it.
type BlockFrame struct {
	Offset  int64  `json:"off"`  // file offset of the block's frame header
	CompLen int    `json:"clen"` // compressed payload bytes
	RawLen  int    `json:"rlen"` // uncompressed payload bytes
	CRC     uint32 `json:"crc"`  // CRC32 (IEEE) of the compressed payload
}

// SegmentFile is an in-progress segment: a temp file that accumulates
// framed blocks and becomes durable (and visible under its final name)
// only at Seal. A crash at any earlier point leaves an invisible *.tmp-*
// file and nothing else.
type SegmentFile struct {
	f       *durable.File
	written int64

	zbuf bytes.Buffer
	gz   *gzip.Writer
}

// CreateSegmentFile opens a new temp-backed segment in dir and writes the
// magic. finalName is the name the file takes at Seal.
func CreateSegmentFile(dir, finalName, magic string) (*SegmentFile, error) {
	f, err := durable.Create(filepath.Join(dir, finalName))
	if err != nil {
		return nil, err
	}
	if _, err := f.WriteString(magic); err != nil {
		f.Abort()
		return nil, err
	}
	return &SegmentFile{f: f, written: int64(len(magic))}, nil
}

// Written returns the bytes written so far (magic + frames).
func (s *SegmentFile) Written() int64 { return s.written }

// AppendBlock compresses raw and writes one framed block: uvarint rawLen,
// uvarint compLen, uvarint CRC32(compressed), then the gzip payload.
func (s *SegmentFile) AppendBlock(raw []byte) (BlockFrame, error) {
	s.zbuf.Reset()
	if s.gz == nil {
		s.gz = gzip.NewWriter(&s.zbuf)
	} else {
		s.gz.Reset(&s.zbuf)
	}
	if _, err := s.gz.Write(raw); err != nil {
		return BlockFrame{}, err
	}
	if err := s.gz.Close(); err != nil {
		return BlockFrame{}, err
	}
	comp := s.zbuf.Bytes()
	crc := crc32.ChecksumIEEE(comp)

	hdr := binary.AppendUvarint(nil, uint64(len(raw)))
	hdr = binary.AppendUvarint(hdr, uint64(len(comp)))
	hdr = binary.AppendUvarint(hdr, uint64(crc))

	frame := BlockFrame{Offset: s.written, CompLen: len(comp), RawLen: len(raw), CRC: crc}
	if _, err := s.f.Write(hdr); err != nil {
		return BlockFrame{}, err
	}
	if _, err := s.f.Write(comp); err != nil {
		return BlockFrame{}, err
	}
	s.written += int64(len(hdr) + len(comp))
	return frame, nil
}

// Seal writes the footer blob and trailer and commits the file: fsync,
// rename to its final name, fsync the directory. It returns the sealed
// file's total size. The SegmentFile is spent afterwards.
func (s *SegmentFile) Seal(footer []byte, trailerMagic string) (int64, error) {
	trailer := make([]byte, 0, TrailerSize)
	trailer = binary.LittleEndian.AppendUint32(trailer, crc32.ChecksumIEEE(footer))
	trailer = binary.LittleEndian.AppendUint64(trailer, uint64(len(footer)))
	trailer = append(trailer, trailerMagic...)
	f := s.f
	s.f = nil
	_, err := f.Write(footer)
	if err == nil {
		_, err = f.Write(trailer)
	}
	if err != nil {
		f.Abort()
		return 0, err
	}
	s.written += int64(len(footer) + len(trailer))
	if err := f.Commit(); err != nil {
		return 0, err
	}
	return s.written, nil
}

// Abort discards the temp file. Safe to call after Seal (no-op).
func (s *SegmentFile) Abort() {
	if s.f != nil {
		s.f.Abort()
		s.f = nil
	}
}

// ReadFooter validates a sealed segment of the kind — magic, trailer,
// footer CRC — and decodes its JSON footer into footer, returning the file
// size. A torn (truncated or unsealed) segment fails here with a
// descriptive error; block payloads are not touched.
func (k *Kind) ReadFooter(path string, footer any) (size int64, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("%s: %w", k.Label, err)
		}
	}()
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	size = st.Size()
	if size < int64(len(k.SegMagic))+TrailerSize {
		return size, fmt.Errorf("%s: truncated segment (%d bytes)", path, size)
	}
	got := make([]byte, len(k.SegMagic))
	if _, err := f.ReadAt(got, 0); err != nil {
		return size, err
	}
	if string(got) != k.SegMagic {
		return size, fmt.Errorf("%s: bad segment magic", path)
	}
	trailer := make([]byte, TrailerSize)
	if _, err := f.ReadAt(trailer, size-TrailerSize); err != nil {
		return size, err
	}
	if string(trailer[12:]) != k.TrailerMagic {
		return size, fmt.Errorf("%s: missing trailer magic (torn or unsealed segment)", path)
	}
	footerCRC := binary.LittleEndian.Uint32(trailer[0:4])
	footerLen := binary.LittleEndian.Uint64(trailer[4:12])
	if footerLen > uint64(size)-uint64(len(k.SegMagic))-TrailerSize {
		return size, fmt.Errorf("%s: footer length %d exceeds file size %d", path, footerLen, size)
	}
	blob := make([]byte, footerLen)
	if _, err := f.ReadAt(blob, size-TrailerSize-int64(footerLen)); err != nil {
		return size, err
	}
	if crc := crc32.ChecksumIEEE(blob); crc != footerCRC {
		return size, fmt.Errorf("%s: footer checksum mismatch (%#x != %#x)", path, crc, footerCRC)
	}
	if err := json.Unmarshal(blob, footer); err != nil {
		return size, fmt.Errorf("%s: bad footer: %w", path, err)
	}
	return size, nil
}

// ReadFramedBlock reads, checksums, and decompresses one block into raw
// (reused when its capacity allows). The frame header on disk is
// cross-checked against the footer's index entry — a mismatch means either
// side is corrupt.
func ReadFramedBlock(f *os.File, b BlockFrame, raw []byte) ([]byte, error) {
	hdr := make([]byte, binary.MaxVarintLen64*3)
	n, err := f.ReadAt(hdr, b.Offset)
	if err != nil && err != io.EOF {
		return nil, err
	}
	hdr = hdr[:n]
	r := NewByteReader(hdr)
	rawLen, err := r.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("block at %d: %w", b.Offset, err)
	}
	compLen, err := r.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("block at %d: %w", b.Offset, err)
	}
	crcHdr, err := r.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("block at %d: %w", b.Offset, err)
	}
	if int(rawLen) != b.RawLen || int(compLen) != b.CompLen || uint32(crcHdr) != b.CRC {
		return nil, fmt.Errorf("block at %d: frame header disagrees with footer index", b.Offset)
	}
	comp := make([]byte, compLen)
	if _, err := f.ReadAt(comp, b.Offset+int64(r.Offset())); err != nil {
		return nil, fmt.Errorf("block at %d: %w", b.Offset, err)
	}
	if crc := crc32.ChecksumIEEE(comp); crc != b.CRC {
		return nil, fmt.Errorf("block at %d: payload checksum mismatch (%#x != %#x)", b.Offset, crc, b.CRC)
	}
	zr, err := gzip.NewReader(bytes.NewReader(comp))
	if err != nil {
		return nil, fmt.Errorf("block at %d: %w", b.Offset, err)
	}
	if cap(raw) < int(rawLen) {
		raw = make([]byte, rawLen)
	}
	raw = raw[:rawLen]
	if _, err := io.ReadFull(zr, raw); err != nil {
		return nil, fmt.Errorf("block at %d: %w", b.Offset, err)
	}
	// One extra read distinguishes "exactly rawLen bytes" from a payload
	// that kept going (footer lied about the raw size).
	if n, _ := zr.Read(make([]byte, 1)); n != 0 {
		return nil, fmt.Errorf("block at %d: payload longer than indexed %d bytes", b.Offset, rawLen)
	}
	if err := zr.Close(); err != nil {
		return nil, fmt.Errorf("block at %d: %w", b.Offset, err)
	}
	return raw, nil
}

// FrameHeaderLen returns the byte length of a block's frame header (three
// uvarints whose widths depend on the values) — what verifiers need to
// recompute expected next-block offsets.
func FrameHeaderLen(b BlockFrame) int {
	return uvarintLen(uint64(b.RawLen)) + uvarintLen(uint64(b.CompLen)) + uvarintLen(uint64(b.CRC))
}

// ByteReader is a bounds-checked cursor over a decoded block. Every read
// returns an error instead of panicking, so arbitrary (corrupt or fuzzed)
// bytes decode to a clean error, never a crash.
type ByteReader struct {
	b   []byte
	off int
}

// NewByteReader returns a cursor over b.
func NewByteReader(b []byte) *ByteReader { return &ByteReader{b: b} }

// Len returns the unread byte count.
func (r *ByteReader) Len() int { return len(r.b) - r.off }

// Offset returns the bytes consumed so far.
func (r *ByteReader) Offset() int { return r.off }

// Uvarint decodes one unsigned varint.
func (r *ByteReader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated or malformed uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// Varint decodes one zigzag varint.
func (r *ByteReader) Varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated or malformed varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// Byte reads one byte.
func (r *ByteReader) Byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, fmt.Errorf("truncated record at offset %d", r.off)
	}
	b := r.b[r.off]
	r.off++
	return b, nil
}

// String reads a uvarint-length-prefixed string.
func (r *ByteReader) String() (string, error) {
	n, err := r.Uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(r.Len()) {
		return "", fmt.Errorf("string length %d exceeds remaining %d bytes", n, r.Len())
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
