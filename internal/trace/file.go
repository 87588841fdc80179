package trace

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/durable"
)

// countingWriter tracks bytes that reached the underlying file, so error
// paths can report how much really hit disk (a gzip.Writer buffers
// internally; its Close flushes the tail and can be the first call to see
// a write error).
type countingWriter struct {
	w io.Writer
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.w.Write(p)
	w.n += int64(n)
	return n, err
}

// WriteFile serializes the corpus to path; a ".gz" suffix enables gzip
// compression (runtime logs compress ~10x — relevant for grep-sized
// corpora). The file is replaced through durable.WriteFile, so a crash or
// a full disk mid-write can never leave a truncated corpus under the final
// name. Returns the bytes written to disk — on error, the bytes that
// actually reached the (now removed) temp file, not a flat 0.
func (c *Corpus) WriteFile(path string) (int64, error) {
	cw := &countingWriter{}
	err := durable.WriteFile(path, func(w io.Writer) error {
		cw.w = w
		if !strings.HasSuffix(path, ".gz") {
			_, err := c.WriteTo(cw)
			return err
		}
		zw := gzip.NewWriter(cw)
		if _, err := c.WriteTo(zw); err != nil {
			return err
		}
		return zw.Close()
	})
	return cw.n, err
}

// ReadFile loads a corpus written by WriteFile, transparently handling the
// ".gz" suffix.
func ReadFile(path string) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("trace: %s: %w", path, err)
		}
		defer zr.Close()
		return ReadCorpus(zr)
	}
	return ReadCorpus(f)
}
