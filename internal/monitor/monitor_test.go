package monitor

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/interp"
	"repro/internal/trace"
)

const testSrc = `
global int calls = 0;
func work(int n, string tag) int {
  calls = calls + 1;
  buf b[8];
  int i = 0;
  while (i < n) {
    bufwrite(b, i, 'x');
    i = i + 1;
  }
  return n * 2;
}
func main() int {
  int n = input_int("n");
  work(n, "t");
  return 0;
}`

func collectOne(t *testing.T, n int64, cfg Config) *trace.Run {
	t.Helper()
	prog := bytecode.MustCompile("mon", testSrc)
	run, err := CollectRun(prog, &interp.Input{Ints: map[string]int64{"n": n}}, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestFullLoggingCapturesAllEvents(t *testing.T) {
	run := collectOne(t, 3, Config{SampleRate: 1.0})
	if run.Faulty {
		t.Fatal("benign run marked faulty")
	}
	// main:enter, work:enter, work:leave, main:leave.
	if len(run.Records) != 4 {
		t.Fatalf("records = %d, want 4: %+v", len(run.Records), run.Records)
	}
	if run.Records[1].Loc.String() != "work():enter" {
		t.Errorf("record 1 loc = %s", run.Records[1].Loc)
	}
}

func TestObservationsContent(t *testing.T) {
	run := collectOne(t, 3, Config{SampleRate: 1.0})
	enter := run.Records[1]
	// Globals + params (buffer params would be skipped; n and tag logged).
	var haveCalls, haveN, haveTag bool
	for _, ob := range enter.Obs {
		switch {
		case ob.Var == "calls" && ob.Class == trace.ClassGlobal:
			haveCalls = true
			// The entry hook fires before the body executes.
			if ob.Int != 0 {
				t.Errorf("calls at work entry = %d, want 0", ob.Int)
			}
		case ob.Var == "n" && ob.Class == trace.ClassParam:
			haveN = true
			if ob.Int != 3 {
				t.Errorf("n = %d", ob.Int)
			}
		case ob.Var == "tag" && ob.Class == trace.ClassParam:
			haveTag = true
			if ob.Str != "t" || ob.Numeric() != 1 {
				t.Errorf("tag = %+v", ob)
			}
		}
	}
	if !haveCalls || !haveN || !haveTag {
		t.Errorf("missing observations: calls=%v n=%v tag=%v", haveCalls, haveN, haveTag)
	}
	leave := run.Records[2]
	var haveRet, haveCallsAtLeave bool
	for _, ob := range leave.Obs {
		if ob.Class == trace.ClassReturn {
			haveRet = true
			if ob.Int != 6 {
				t.Errorf("return = %d, want 6", ob.Int)
			}
		}
		if ob.Var == "calls" && ob.Class == trace.ClassGlobal {
			haveCallsAtLeave = true
			if ob.Int != 1 {
				t.Errorf("calls at work leave = %d, want 1", ob.Int)
			}
		}
	}
	if !haveRet || !haveCallsAtLeave {
		t.Error("missing return or global observation at leave")
	}
}

func TestFaultyRunTruncatedLog(t *testing.T) {
	// n=20 overflows the 8-byte buffer inside work: the log must end
	// before work():leave (footnote 3: no return captured in faulty runs).
	run := collectOne(t, 20, Config{SampleRate: 1.0})
	if !run.Faulty {
		t.Fatal("overflow run not marked faulty")
	}
	if run.FaultKind != "buffer-overflow" || run.FaultFunc != "work" {
		t.Errorf("fault = %s in %s", run.FaultKind, run.FaultFunc)
	}
	last, _ := run.FinalLocation()
	if last.String() != "work():enter" {
		t.Errorf("final location = %s, want work():enter", last)
	}
}

func TestSamplingReducesRecords(t *testing.T) {
	prog := bytecode.MustCompile("mon", testSrc)
	full := 0
	sampled := 0
	for i := 0; i < 50; i++ {
		in := &interp.Input{Ints: map[string]int64{"n": 4}}
		rf, err := CollectRun(prog, in, Config{SampleRate: 1.0, Seed: 1}, i)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := CollectRun(prog, in, Config{SampleRate: 0.3, Seed: 1}, i)
		if err != nil {
			t.Fatal(err)
		}
		full += len(rf.Records)
		sampled += len(rs.Records)
	}
	if sampled >= full/2 {
		t.Errorf("30%% sampling kept %d of %d records", sampled, full)
	}
	if sampled == 0 {
		t.Error("sampling dropped everything")
	}
}

func TestSamplingDeterministic(t *testing.T) {
	prog := bytecode.MustCompile("mon", testSrc)
	in := &interp.Input{Ints: map[string]int64{"n": 4}}
	r1, _ := CollectRun(prog, in, Config{SampleRate: 0.5, Seed: 42}, 7)
	r2, _ := CollectRun(prog, in, Config{SampleRate: 0.5, Seed: 42}, 7)
	if len(r1.Records) != len(r2.Records) {
		t.Errorf("same seed, different logs: %d vs %d", len(r1.Records), len(r2.Records))
	}
	r3, _ := CollectRun(prog, in, Config{SampleRate: 0.5, Seed: 43}, 7)
	_ = r3 // different seed may or may not differ; just ensure no panic
}

func TestBalancedCorpus(t *testing.T) {
	prog := bytecode.MustCompile("mon", testSrc)
	gen := func(i int) *interp.Input {
		// Alternate benign and overflowing inputs.
		n := int64(i % 6)
		if i%2 == 1 {
			n = int64(10 + i%8)
		}
		return &interp.Input{Ints: map[string]int64{"n": n}}
	}
	corpus, err := BalancedCorpusCtx(context.Background(), prog, gen, 10, 10, Config{SampleRate: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	correct, faulty := corpus.Split()
	if len(correct) != 10 || len(faulty) != 10 {
		t.Errorf("corpus split = %d/%d, want 10/10", len(correct), len(faulty))
	}
}

func TestBalancedCorpusImpossible(t *testing.T) {
	prog := bytecode.MustCompile("mon", testSrc)
	gen := func(i int) *interp.Input {
		return &interp.Input{Ints: map[string]int64{"n": 1}} // never faults
	}
	if _, err := BalancedCorpusCtx(context.Background(), prog, gen, 1, 1, Config{SampleRate: 1.0}); err == nil {
		t.Error("expected error when faulty runs are impossible")
	}
}

func TestCorpusRoundTrip(t *testing.T) {
	prog := bytecode.MustCompile("mon", testSrc)
	gen := func(i int) *interp.Input {
		n := int64(i % 5)
		if i%2 == 1 {
			n = 15
		}
		return &interp.Input{Ints: map[string]int64{"n": n}}
	}
	corpus, err := BalancedCorpusCtx(context.Background(), prog, gen, 5, 5, Config{SampleRate: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := corpus.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadCorpus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Program != corpus.Program || len(back.Runs) != len(corpus.Runs) {
		t.Fatalf("round trip mismatch: %s/%d vs %s/%d",
			back.Program, len(back.Runs), corpus.Program, len(corpus.Runs))
	}
	for i := range corpus.Runs {
		a, b := &corpus.Runs[i], &back.Runs[i]
		if a.Faulty != b.Faulty || len(a.Records) != len(b.Records) {
			t.Errorf("run %d mismatch", i)
		}
	}
}
