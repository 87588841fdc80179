package symexec

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/trace"
)

// ckptSrc branches on two symbolic inputs and overflows a fixed buffer on
// one path, so runs create plenty of states, heap traffic, string byte
// materialization, and a real vulnerability.
const ckptSrc = `
func copy_in(string s) int {
  buf dst[6];
  int i = 0;
  while (i < len(s)) {
    bufwrite(dst, i, char(s, i));
    i = i + 1;
  }
  return i;
}
func main() int {
  int a = input_int("a");
  string s = input_string("s");
  int r = 0;
  if (a > 10) {
    r = copy_in(s);
  } else {
    if (a > 3) { r = a + 1; } else { r = a; }
  }
  if (a > 20) { r = r + 2; }
  return r;
}
`

func ckptOpts() Options {
	return Options{
		StopAtFirstVuln:  false,
		CheckStringReads: true,
		MaxStates:        5_000,
		MaxSteps:         1_000_000,
	}
}

func ckptSpec() *InputSpec { return &InputSpec{MaxStrLen: 8} }

// compareDeterministic fails the test if any counter outside the
// wall-clock / cache-split family differs.
func compareDeterministic(t *testing.T, got, want *Result) {
	t.Helper()
	type row struct {
		name      string
		got, want int64
	}
	rows := []row{
		{"Paths", int64(got.Paths), int64(want.Paths)},
		{"StatesCreated", int64(got.StatesCreated), int64(want.StatesCreated)},
		{"Steps", got.Steps, want.Steps},
		{"Forks", int64(got.Forks), int64(want.Forks)},
		{"Vulns", int64(len(got.Vulns)), int64(len(want.Vulns))},
		{"SolverChecks", int64(got.SolverChecks), int64(want.SolverChecks)},
		{"SolverSat", int64(got.SolverSat), int64(want.SolverSat)},
		{"SolverUnsat", int64(got.SolverUnsat), int64(want.SolverUnsat)},
		{"StepLimited", b2i(got.StepLimited), b2i(want.StepLimited)},
		{"Exhausted", b2i(got.Exhausted), b2i(want.Exhausted)},
	}
	for _, r := range rows {
		if r.got != r.want {
			t.Errorf("%s = %d, want %d", r.name, r.got, r.want)
		}
	}
	for i := range want.Vulns {
		if i >= len(got.Vulns) {
			break
		}
		g, w := got.Vulns[i], want.Vulns[i]
		if g.Kind != w.Kind || g.Func != w.Func || g.Pos != w.Pos {
			t.Errorf("vuln %d = (%v, %s, %v), want (%v, %s, %v)", i, g.Kind, g.Func, g.Pos, w.Kind, w.Func, w.Pos)
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestCheckpointResumeEquivalence pins the codec's core promise: interrupt
// a run at a step budget, serialize it, resume the blob in a fresh
// executor, and the final result matches an uninterrupted run on every
// deterministic counter.
func TestCheckpointResumeEquivalence(t *testing.T) {
	prog := bytecode.MustCompile("ckpt", ckptSrc)

	full := New(prog, ckptSpec(), ckptOpts()).Run()
	if full.StepLimited || !full.Found() {
		t.Fatalf("uninterrupted run: StepLimited=%v Found=%v (want complete, vulnerable)", full.StepLimited, full.Found())
	}

	// Interrupt partway: the budget must land after some exploration but
	// before exhaustion.
	partOpts := ckptOpts()
	partOpts.MaxSteps = full.Steps / 3
	partEx := New(prog, ckptSpec(), partOpts)
	part := partEx.Run()
	if !part.StepLimited {
		t.Fatalf("partial run not step-limited (steps=%d, budget=%d)", part.Steps, partOpts.MaxSteps)
	}

	blob, err := partEx.EncodeCheckpoint()
	if err != nil {
		t.Fatalf("EncodeCheckpoint: %v", err)
	}
	resumed, err := ResumeExecutor(blob, ckptOpts())
	if err != nil {
		t.Fatalf("ResumeExecutor: %v", err)
	}
	res := resumed.Run()
	compareDeterministic(t, res, full)
}

// TestCheckpointReencodeStable: decode∘encode is the identity on the wire
// — re-encoding a freshly resumed executor reproduces the blob byte for
// byte.
func TestCheckpointReencodeStable(t *testing.T) {
	prog := bytecode.MustCompile("ckpt", ckptSrc)
	opts := ckptOpts()
	opts.MaxSteps = 400
	ex := New(prog, ckptSpec(), opts)
	ex.Run()
	blob, err := ex.EncodeCheckpoint()
	if err != nil {
		t.Fatalf("EncodeCheckpoint: %v", err)
	}
	resumed, err := ResumeExecutor(blob, opts)
	if err != nil {
		t.Fatalf("ResumeExecutor: %v", err)
	}
	blob2, err := resumed.EncodeCheckpoint()
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatalf("re-encoded checkpoint differs (%d vs %d bytes)", len(blob), len(blob2))
	}
}

// TestCheckpointGuards: configurations outside the provable-equivalence
// envelope are refused.
func TestCheckpointGuards(t *testing.T) {
	prog := bytecode.MustCompile("ckpt", ckptSrc)
	opts := ckptOpts()
	opts.Workers = 2
	ex := New(prog, ckptSpec(), opts)
	if _, err := ex.EncodeCheckpoint(); err == nil {
		t.Error("parallel executor checkpointed")
	}
	hooked := ckptOpts()
	hooked.Hook = func(*Executor, *State, trace.Location, *VarView) HookDecision { return HookContinue }
	if _, err := New(prog, ckptSpec(), hooked).EncodeCheckpoint(); err == nil {
		t.Error("hooked executor checkpointed")
	}
	if _, err := ResumeExecutor(nil, opts); err == nil {
		t.Error("resume accepted parallel options")
	}
}

// TestCheckpointGarbageRejected: corrupt or truncated blobs produce
// errors, never panics.
func TestCheckpointGarbageRejected(t *testing.T) {
	prog := bytecode.MustCompile("ckpt", ckptSrc)
	opts := ckptOpts()
	opts.MaxSteps = 300
	ex := New(prog, ckptSpec(), opts)
	ex.Run()
	blob, err := ex.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(blob); cut += 17 {
		if _, err := ResumeExecutor(blob[:cut], ckptOpts()); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	bad := append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0x3C
	// A mid-blob flip may or may not decode; it must never panic.
	ResumeExecutor(bad, ckptOpts())
}

// TestCheckpointFileRoundTrip exercises the framed .ssnap file form.
func TestCheckpointFileRoundTrip(t *testing.T) {
	prog := bytecode.MustCompile("ckpt", ckptSrc)
	opts := ckptOpts()
	opts.MaxSteps = 300
	ex := New(prog, ckptSpec(), opts)
	ex.Run()
	blob, err := ex.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ssnap")
	if err := WriteCheckpointFile(path, blob); err != nil {
		t.Fatalf("WriteCheckpointFile: %v", err)
	}
	back, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatalf("ReadCheckpointFile: %v", err)
	}
	if !bytes.Equal(back, blob) {
		t.Fatal("file round trip changed the payload")
	}
	if _, err := ResumeExecutor(back, ckptOpts()); err != nil {
		t.Fatalf("resume from file payload: %v", err)
	}
}

// TestResumeSkipsCarriedSite: a checkpoint captured with StopAtFirstVuln
// off carries the vulnerability it found; a resume that stops at the
// first vulnerability must pass over repeats of the carried site exactly
// as the sequential loop does. A slot that stopped on the repeat would
// end its quantum halfway through the faulting instruction, and the state
// would explore on without the in-bounds constraint.
func TestResumeSkipsCarriedSite(t *testing.T) {
	prog := bytecode.MustCompile("carried", `
func main() int {
  int a = input_int("a");
  int b = input_int("b");
  buf dst[4];
  int r = 0;
  if (b > 5) { r = r + 1; } else { r = r + 2; if (b > 2) { r = r + 3; } }
  bufwrite(dst, a, r);
  if (a > 100) { r = r + 7; }
  return r;
}`)
	ex := New(prog, nil, Options{CheckStringReads: true, MaxSteps: 30})
	if res := ex.Run(); len(res.Vulns) != 1 || ex.Pending() == 0 {
		t.Fatalf("capture: %d vulnerabilities, %d pending states; want 1 and some", len(res.Vulns), ex.Pending())
	}
	blob, err := ex.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	resume := func(run func(*Executor) *Result) Result {
		rx, err := ResumeExecutor(blob, Options{CheckStringReads: true, StopAtFirstVuln: true})
		if err != nil {
			t.Fatal(err)
		}
		r := *run(rx)
		r.Elapsed, r.SolverTime, r.Epochs = 0, 0, 0
		return r
	}
	got := resume((*Executor).Run)
	want := resume(func(rx *Executor) *Result { return RunOracle(context.Background(), rx) })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed run diverged from the sequential loop:\n got  %+v\n want %+v", got, want)
	}
}
