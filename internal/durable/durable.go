// Package durable replaces files crash-safely: the new content is written
// to a temp file in the target's directory, fsynced, renamed over the
// target, and the directory is fsynced so the rename itself survives a
// power loss. Readers see the old file or the new one, never a mix, and a
// crash before the rename leaves only a "<name>.tmp-*" file behind.
package durable

import (
	"io"
	"os"
	"path/filepath"
)

// File is a temp file that takes its target's name at Commit.
type File struct {
	*os.File
	path string
}

// Create opens a temp file in path's directory for a later Commit to path.
func Create(path string) (*File, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, err
	}
	return &File{File: f, path: path}, nil
}

// Commit fsyncs and closes the temp file, renames it to the target path
// and fsyncs the directory. The temp file is removed when any step before
// the rename fails. The File is spent afterwards.
func (f *File) Commit() error {
	tmp := f.Name()
	err := f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, f.path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(f.path))
}

// Abort closes and removes the temp file, leaving the target untouched.
func (f *File) Abort() {
	f.Close()
	os.Remove(f.Name())
}

// WriteFile durably replaces path with the bytes write produces. When
// write fails the old file stays in place and no temp file is left.
func WriteFile(path string, write func(w io.Writer) error) error {
	f, err := Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Abort()
		return err
	}
	return f.Commit()
}

// syncDir fsyncs a directory so renames within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
