package core

import (
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/workload"
)

// goldenEngines are the four candidate-verification configurations the
// golden table pins, one recorded row per app and configuration.
var goldenEngines = []struct {
	label string
	cfg   Config
}{
	{"sequential", Config{}},
	{"parallel-2", Config{Parallel: 2}},
	{"workers-2", Config{Workers: 2}},
	{"dispatch-local-only", Config{Dispatch: true}},
}

// goldenRow is one app's recorded detection at rate 0.3, seed 1.
type goldenRow struct {
	token string
	steps int64
	paths int
}

// TestGoldenDigests pins each bundled app's DigestToken, TotalSteps and
// TotalPaths at sampling rate 0.3, seed 1 under four engine
// configurations. The engine differentials compare engines with each
// other within one build; this table also catches a change that shifts
// every engine together. The values were recorded from the separate
// sequential, parallel and dispatch engines the slot pool replaced, so the
// pool must reproduce them exactly. Workers >= 1 widens the executor's
// epochs from one state to several, so its counters (and, on msgtool,
// detection) legitimately differ from the one-state loop's (DESIGN.md
// §11). The workers-2 path counts include the faulting path, which the
// run that stops on it completes like every other path.
func TestGoldenDigests(t *testing.T) {
	golden := map[string]map[string]goldenRow{
		"polymorph": {
			"sequential":          {"0f42d7cd2c3f896b", 9482, 2},
			"parallel-2":          {"0f42d7cd2c3f896b", 9482, 2},
			"workers-2":           {"0f42d7cd2c3f896b", 37186, 3},
			"dispatch-local-only": {"0f42d7cd2c3f896b", 9482, 2},
		},
		"ctree": {
			"sequential":          {"4defe7ff3b81aa9a", 1205, 1},
			"parallel-2":          {"4defe7ff3b81aa9a", 1205, 1},
			"workers-2":           {"4defe7ff3b81aa9a", 4533, 1},
			"dispatch-local-only": {"4defe7ff3b81aa9a", 1205, 1},
		},
		"thttpd": {
			"sequential":          {"26f2b6e639bca9d2", 49641, 1},
			"parallel-2":          {"26f2b6e639bca9d2", 49641, 1},
			"workers-2":           {"26f2b6e639bca9d2", 309300, 1},
			"dispatch-local-only": {"26f2b6e639bca9d2", 49641, 1},
		},
		"grep": {
			"sequential":          {"d83b6872c40dff5c", 1278443, 1},
			"parallel-2":          {"d83b6872c40dff5c", 1278443, 1},
			"workers-2":           {"d83b6872c40dff5c", 1277825, 1},
			"dispatch-local-only": {"d83b6872c40dff5c", 1278443, 1},
		},
		"msgtool": {
			"sequential":          {"1d791072cc29b364", 1602, 2},
			"parallel-2":          {"1d791072cc29b364", 1602, 2},
			"workers-2":           {"fc6ccb0e527f909a", 1355, 5},
			"dispatch-local-only": {"1d791072cc29b364", 1602, 2},
		},
		"billing": {
			"sequential":          {"7dad683cba7691f4", 202, 1},
			"parallel-2":          {"7dad683cba7691f4", 202, 1},
			"workers-2":           {"7dad683cba7691f4", 297, 3},
			"dispatch-local-only": {"7dad683cba7691f4", 202, 1},
		},
	}
	all := append(apps.All(), apps.Extras()...)
	for _, app := range all {
		t.Run(app.Name, func(t *testing.T) {
			corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, eng := range goldenEngines {
				rep, err := RunJob(context.Background(), JobInputs{Prog: app.Program(), Spec: app.Spec, Corpus: corpus}, eng.cfg)
				if err != nil {
					t.Fatalf("%s: %v", eng.label, err)
				}
				got := goldenRow{DigestToken(rep), rep.TotalSteps, rep.TotalPaths}
				if want := golden[app.Name][eng.label]; got != want {
					t.Errorf("%s: got token=%s steps=%d paths=%d, want token=%s steps=%d paths=%d",
						eng.label, got.token, got.steps, got.paths, want.token, want.steps, want.paths)
				}
			}
		})
	}
}
