package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestWriteFile: a failing callback leaves the old file in place and no
// temp file behind; a successful one replaces the file.
func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("boom")
	err := WriteFile(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "partial new content"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFile error = %v, want the callback's", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("failed write changed the file to %q", got)
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "state.json" {
		t.Fatalf("failed write left %v behind", names)
	}

	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("file holds %q after a successful write, want %q", got, "new")
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "state.json" {
		t.Fatalf("successful write left %v behind", names)
	}
}

// TestCreateCommitAbort: the temp file is invisible under the target name
// until Commit, and Abort removes it.
func TestCreateCommitAbort(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-000000.seg")
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("payload"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("target visible before Commit: %v", err)
	}
	if names := dirNames(t, dir); len(names) != 1 || !strings.HasPrefix(names[0], "seg-000000.seg.tmp-") {
		t.Fatalf("temp file named %v, want seg-000000.seg.tmp-*", names)
	}
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "payload" {
		t.Fatalf("committed file holds %q", got)
	}

	g, err := Create(filepath.Join(dir, "other"))
	if err != nil {
		t.Fatal(err)
	}
	g.Abort()
	if names := dirNames(t, dir); len(names) != 1 {
		t.Fatalf("Abort left %v behind", names)
	}
}
