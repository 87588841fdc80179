package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// ctreeCheckpoint is a capture of `symexec -app ctree -max-steps 3000
// -checkpoint-out`, checked in for the checkpoint compatibility test.
const ctreeCheckpoint = "../../internal/symexec/testdata/ctree-3000.ssnap"

// runCmd runs the command in-process and returns its stdout and error.
func runCmd(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), err
}

// TestRetiredDispatchFlagsUndefined: the pure-mode sharding flags are
// gone, so each is a usage error and nothing runs.
func TestRetiredDispatchFlagsUndefined(t *testing.T) {
	for _, args := range [][]string{
		{"-app", "ctree", "-dispatch"},
		{"-app", "ctree", "-worker-addrs", "unix:/tmp/w.sock"},
		{"-app", "ctree", "-warmup-steps", "5000"},
	} {
		out, err := runCmd(t, args...)
		if !errors.As(err, new(usageError)) || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: err = %v, want an undefined-flag usage error", args, err)
		}
		if out != "" {
			t.Errorf("%v: printed %q", args, out)
		}
	}
}

// TestResumeRefusesProgramFlags: a checkpoint carries its own program and
// input spec, so -resume with -app, -file or -replay is refused before
// anything runs.
func TestResumeRefusesProgramFlags(t *testing.T) {
	witness := filepath.Join(t.TempDir(), "w.json")
	if err := os.WriteFile(witness, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{
		{"-replay", witness},
		{"-app", "grep"},
		{"-file", "prog.mc"},
	} {
		args := append([]string{"-resume", ctreeCheckpoint}, extra...)
		out, err := runCmd(t, args...)
		if err == nil || !strings.Contains(err.Error(), "-resume") {
			t.Errorf("%v: err = %v, want -resume refused", extra, err)
		}
		if out != "" {
			t.Errorf("%v: printed %q", extra, out)
		}
	}
}

// TestCheckpointOutFailsFast: a configuration the checkpoint format
// cannot hold is refused before exploration, so the run's metrics never
// count a step and no file is written.
func TestCheckpointOutFailsFast(t *testing.T) {
	for _, tc := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-workers", "2"}, "requires one state per epoch"},
		{[]string{"-scope", "all,-classify_entry"}, "cannot capture a call policy"},
		{[]string{"-summaries"}, "cannot capture a call policy"},
	} {
		path := filepath.Join(t.TempDir(), "c.ssnap")
		args := append([]string{"-app", "ctree", "-max-steps", "5000", "-metrics", "-checkpoint-out", path}, tc.flags...)
		out, err := runCmd(t, args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want %q", tc.flags, err, tc.want)
		}
		if strings.Contains(out, obs.MetricSteps) || strings.Contains(out, "scheduler=") {
			t.Errorf("%v: explored before refusing the checkpoint:\n%s", tc.flags, out)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%v: checkpoint file exists (stat err %v)", tc.flags, err)
		}
	}
}

// TestCheckpointRecapture: capturing ctree at 3,000 steps reproduces the
// checked-in capture byte for byte.
func TestCheckpointRecapture(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ssnap")
	out, err := runCmd(t, "-app", "ctree", "-max-steps", "3000", "-checkpoint-out", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "scheduler=bfs ") {
		t.Errorf("no result line in:\n%s", out)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ctreeCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("capture differs from %s (%d vs %d bytes)", ctreeCheckpoint, len(got), len(want))
	}
}
