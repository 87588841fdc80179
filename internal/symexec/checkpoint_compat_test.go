package symexec

import (
	"fmt"
	"path/filepath"
	"testing"
)

// TestCheckpointCompat resumes a checkpoint captured by an earlier build of
// the engine and compares the run it continues to with the counters that
// build reached. The file is the CI checkpoint smoke's capture:
//
//	symexec -app ctree -max-steps 3000 -checkpoint-out ctree-3000.ssnap
//
// Unlike the round-trip tests, which capture and resume with the same
// code, this pins the file format and the resumed exploration across
// engine changes: an old checkpoint must keep resuming to the same result.
func TestCheckpointCompat(t *testing.T) {
	blob, err := ReadCheckpointFile(filepath.Join("testdata", "ctree-3000.ssnap"))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := ResumeExecutor(blob, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := ex.Pending(); got != 106 {
		t.Errorf("resumed frontier holds %d states, want 106", got)
	}
	res := ex.Run()
	// CacheHits + CompReused is 110418, the hits of the build that wrote
	// the file. The resumed states start without component records, and
	// ctree's path conditions stay too short to keep any.
	want := Result{
		Paths: 63, StatesCreated: 20065, MaxLive: 20001, Steps: 390565, Forks: 20064,
		SolverChecks: 69, SolverSat: 69, CacheHits: 110418, CacheMisses: 69, CompReused: 0,
		Exhausted: true,
	}
	got := *res
	got.SolverTime, got.Elapsed = 0, 0
	// Only the engine's epoch count may differ across engine versions; it
	// is not part of the checkpoint.
	got.Epochs = 0
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Errorf("resumed run:\n got  %+v\n want %+v", got, want)
	}
	if cov := fmt.Sprintf("%.6f", ex.TotalCoverage()); cov != "0.809019" {
		t.Errorf("coverage = %s, want 0.809019", cov)
	}
}
