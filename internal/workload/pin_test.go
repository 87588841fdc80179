package workload

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/interp"
	"repro/internal/trace"
)

// The monitor's output, pinned bit for bit. Each corpus digest is the
// SHA-256 of the Corpus.WriteTo encoding of the app's seed-1 corpus at
// the given sampling rate; each run digest covers interp.Run's result
// (fault kind, function and position, steps, return value and collected
// output) on the first pinRuns inputs of the app's generator at seed 1.
// A change to the concrete VM or to the collection loop must leave every
// value as it is.
var pinnedCorpora = []struct {
	app    string
	rate   float64
	digest string
}{
	{"polymorph", 0.3, "452fe2192010f77a78dedf527f92df9a5e49e36fdbf8c2f3a8c162bc78c50d1b"},
	{"polymorph", 1.0, "2ffb98388b703d7afe925e4f661ef85a502458b395e07d317c41efff098164c2"},
	{"ctree", 0.3, "68039e5362d030d8a78ed177f1bc3870d03f5c9db78f0be7292e80c348f01853"},
	{"ctree", 1.0, "b9f1224d8adf0998f9f2d7c6446e810fe804c8c5ce56ec1f1d060e07a66d3772"},
	{"thttpd", 0.3, "8905bfbbe7372913b9d0b5eabd55db7d090d9ad6bb7d069bbac2347b1df5c068"},
	{"thttpd", 1.0, "7f022d8b45a73bf22ff3190774aa53ecbf331b827ae09f139fe7d152db15bcf3"},
	{"grep", 0.3, "104ea700ca3183c88cd6341acd8583e4d39be50f4f99665531e06d7100c6a645"},
	{"grep", 1.0, "3427833ab220889bfc35f1760969f1ed4b0f8b88457ca050718f1be1101ffdb2"},
	{"msgtool", 0.3, "229be4db4c12a96840ac42e46d88ad6a18f8ddcab3949d88f45b502ae25c91cf"},
	{"msgtool", 1.0, "8337d6ef0286f25789299cfa64a9c17afce916c5baaf4941efad0c143d68ba5b"},
	{"billing", 0.3, "c628b12f57aa96da5bb4a00b4ebef665c4bbeddbffc5bf4504b0dd810576cac3"},
	{"billing", 1.0, "cc47486e7f8274c2746874a82d952c004c4c01d9d5e6f12de01f51927127d77a"},
}

const pinRuns = 500

var pinnedRuns = []struct{ app, digest string }{
	{"polymorph", "933e2f06191598244350f9f36656ae170727dfdf45df95ef5222d115c1993192"},
	{"ctree", "d96abd4fa6005fe994bb9f6f932dc129be22c93002c1eef0b4bdd3a4b5b4a504"},
	{"thttpd", "45719c4bd01f19b5410459df86352e63c9acbf9693fede6c357cd94af506b676"},
	{"grep", "ff8dfec550bcd9c15190925c8619ecf0758b9434ad5f506712d01f8f0ffbe4fd"},
	{"msgtool", "5c90914fb5ae17f8cfe11a43c57f05d94f3abf59b0130f567521ce373d3badd5"},
	{"billing", "cc49b48d66353f4b603c9a460efe4196c7f057f55f6fbd517893f990faec4bb6"},
}

func corpusDigest(t *testing.T, c *trace.Corpus) string {
	t.Helper()
	h := sha256.New()
	if _, err := c.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPinnedCorpora checks every app's corpus at both rates against its
// pinned digest, and the store path (collect into a store, then
// Materialize) against the same digest at rate 0.3.
func TestPinnedCorpora(t *testing.T) {
	for _, pin := range pinnedCorpora {
		t.Run(fmt.Sprintf("%s/rate=%.1f", pin.app, pin.rate), func(t *testing.T) {
			app, err := apps.Get(pin.app)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{SampleRate: pin.rate, Seed: 1}
			c, err := BuildCorpus(app, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := corpusDigest(t, c); got != pin.digest {
				t.Errorf("corpus digest = %s, want %s", got, pin.digest)
			}
			if pin.rate != 0.3 {
				return
			}
			store, err := corpus.Create(t.TempDir(), app.Name)
			if err != nil {
				t.Fatal(err)
			}
			if err := BuildCorpusStoreCtx(context.Background(), app, opts, store, corpus.Options{}); err != nil {
				t.Fatal(err)
			}
			stored, err := store.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			if got := corpusDigest(t, stored); got != pin.digest {
				t.Errorf("store corpus digest = %s, want %s", got, pin.digest)
			}
		})
	}
}

// TestPinnedRuns checks the concrete VM's results on each app's
// generated inputs against the pinned digests.
func TestPinnedRuns(t *testing.T) {
	for _, pin := range pinnedRuns {
		t.Run(pin.app, func(t *testing.T) {
			app, err := apps.Get(pin.app)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < pinRuns; i++ {
				res, err := interp.Run(app.Program(), app.NewInput(rng), interp.Config{CollectOutput: true})
				writeResult(h, res, err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != pin.digest {
				t.Errorf("run digest = %s, want %s", got, pin.digest)
			}
		})
	}
}

func writeResult(h hash.Hash, res *interp.Result, err error) {
	if err != nil {
		fmt.Fprintf(h, "error %v\n", err)
		return
	}
	ret := res.Ret
	bufCap := -1
	if ret.Buf != nil {
		bufCap = ret.Buf.Cap
	}
	fmt.Fprintf(h, "%s %q %d:%d steps=%d ret=%d/%d/%q/%d out=%d\n",
		res.Fault, res.FaultFunc, res.FaultPos.Line, res.FaultPos.Col, res.Steps,
		ret.Kind, ret.Int, ret.Str, bufCap, len(res.Output))
	for _, line := range res.Output {
		fmt.Fprintf(h, "%q\n", line)
	}
}
