package interp

import (
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"testing/quick"
)

func TestInputJSONRoundTrip(t *testing.T) {
	in := &Input{
		Ints: map[string]int64{"x": -42, "y": 1 << 40},
		Strs: map[string]string{"payload": "hello\x00\xff\nworld", "empty": ""},
		Env:  map[string]string{"TAINT": string(make([]byte, 64))},
		Args: []string{"-f", "name with spaces", "\x01\x02"},
	}
	path := filepath.Join(t.TempDir(), "witness.json")
	if err := SaveInput(path, in); err != nil {
		t.Fatal(err)
	}
	back, err := LoadInput(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Ints["x"] != -42 || back.Ints["y"] != 1<<40 {
		t.Errorf("ints = %v", back.Ints)
	}
	if back.Strs["payload"] != in.Strs["payload"] {
		t.Errorf("payload bytes lost: %q", back.Strs["payload"])
	}
	if back.Strs["empty"] != "" {
		t.Errorf("empty string lost")
	}
	if len(back.Env["TAINT"]) != 64 {
		t.Errorf("env bytes lost")
	}
	if len(back.Args) != 3 || back.Args[1] != "name with spaces" || back.Args[2] != "\x01\x02" {
		t.Errorf("args = %q", back.Args)
	}
}

// TestInputJSONBinaryProperty: arbitrary byte strings survive the round
// trip exactly (witnesses may contain any byte value).
func TestInputJSONBinaryProperty(t *testing.T) {
	dir := t.TempDir()
	i := 0
	f := func(payload []byte, n int64) bool {
		i++
		in := &Input{
			Ints: map[string]int64{"n": n},
			Strs: map[string]string{"p": string(payload)},
		}
		path := filepath.Join(dir, "w.json")
		if err := SaveInput(path, in); err != nil {
			return false
		}
		back, err := LoadInput(path)
		if err != nil {
			return false
		}
		return back.Strs["p"] == string(payload) && back.Ints["n"] == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLoadInputErrors(t *testing.T) {
	if _, err := LoadInput(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestInputLines pins the witness rendering both CLIs print: ints, then
// strings, then environment variables, each in key order, then the
// arguments — the same lines for the same input, whatever the map order.
func TestInputLines(t *testing.T) {
	in := &Input{
		Ints: map[string]int64{"items": 1, "buckets": 4, "discount": 88, "a": -2},
		Strs: map[string]string{"path": "/x", "host": "h"},
		Env:  map[string]string{"TERM": "vt100", "HOME": "/root"},
		Args: []string{"-v", "f"},
	}
	want := []string{
		"int a = -2", "int buckets = 4", "int discount = 88", "int items = 1",
		`string host = "h"`, `string path = "/x"`,
		`env HOME = "/root"`, `env TERM = "vt100"`,
		`args = "-v" "f"`,
	}
	for i := 0; i < 20; i++ {
		if got := in.Lines(strconv.Quote); !slices.Equal(got, want) {
			t.Fatalf("Lines:\n got %q\nwant %q", got, want)
		}
	}
	if got := (&Input{}).Lines(strconv.Quote); len(got) != 0 {
		t.Errorf("empty input rendered %q", got)
	}
}
