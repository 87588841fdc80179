// Package snapshot is the compact binary codec behind checkpoint files and
// dispatch units: it serializes programs, candidate paths, solver terms,
// and (through the symexec package's wire layer) execution states, so a
// search can be saved to a .ssnap file and a candidate attempt can be
// shipped to a worker process. The encoding reuses the corpus layer's
// primitives — uvarint/zigzag integers, length-prefixed strings, a
// bounds-checked reader that turns corrupt bytes into errors rather than
// panics — and adds a string-interning dictionary so repeated names
// (function names, variable labels, channel keys) cost one varint after
// first use.
//
// The codec is deterministic: encoding the same value twice produces the
// same bytes (maps are emitted in sorted key order), which lets tests and
// the dispatch layer compare payloads directly.
package snapshot

import (
	"fmt"
	"math"

	"repro/internal/corpus"
)

// Writer accumulates one encoded payload.
type Writer struct {
	buf  []byte
	syms map[string]uint64
}

// NewWriter returns an empty writer.
func NewWriter() *Writer {
	return &Writer{syms: make(map[string]uint64)}
}

// Bytes returns the encoded payload. The slice aliases the writer's buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Byte appends one raw byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	for v >= 0x80 {
		w.buf = append(w.buf, byte(v)|0x80)
		v >>= 7
	}
	w.buf = append(w.buf, byte(v))
}

// Varint appends a zigzag varint.
func (w *Writer) Varint(v int64) {
	w.Uvarint(uint64(v)<<1 ^ uint64(v>>63))
}

// Int appends an int as a zigzag varint.
func (w *Writer) Int(v int) { w.Varint(int64(v)) }

// Float appends a float64 as its IEEE bits.
func (w *Writer) Float(v float64) { w.Uvarint(math.Float64bits(v)) }

// String appends a uvarint-length-prefixed string (no interning).
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Sym appends an interned string: a dictionary index for strings seen
// before, or the next index followed by the raw bytes on first use.
func (w *Writer) Sym(s string) {
	if id, ok := w.syms[s]; ok {
		w.Uvarint(id)
		return
	}
	id := uint64(len(w.syms))
	w.syms[s] = id
	w.Uvarint(id)
	w.String(s)
}

// Reader decodes a payload produced by Writer. It embeds the corpus layer's
// bounds-checked cursor, so malformed input yields descriptive errors.
type Reader struct {
	*corpus.ByteReader
	syms []string
}

// NewReader returns a cursor over b.
func NewReader(b []byte) *Reader {
	return &Reader{ByteReader: corpus.NewByteReader(b)}
}

// Bool reads one bool byte (anything nonzero decodes as true).
func (r *Reader) Bool() (bool, error) {
	b, err := r.Byte()
	return b != 0, err
}

// Int reads a zigzag varint as an int.
func (r *Reader) Int() (int, error) {
	v, err := r.Varint()
	return int(v), err
}

// Float reads a float64 from its IEEE bits.
func (r *Reader) Float() (float64, error) {
	bits, err := r.Uvarint()
	return math.Float64frombits(bits), err
}

// Sym reads an interned string, extending the dictionary on first use.
func (r *Reader) Sym() (string, error) {
	id, err := r.Uvarint()
	if err != nil {
		return "", err
	}
	if id < uint64(len(r.syms)) {
		return r.syms[id], nil
	}
	if id != uint64(len(r.syms)) {
		return "", fmt.Errorf("snapshot: symbol id %d out of order (dictionary has %d)", id, len(r.syms))
	}
	s, err := r.String()
	if err != nil {
		return "", err
	}
	r.syms = append(r.syms, s)
	return s, nil
}
