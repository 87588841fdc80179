package persist

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/corpus"
	"repro/internal/solver"
)

// FuzzCacheEntryRoundTrip throws arbitrary bytes at the entry decoder, which
// parses on-disk bytes at every warm start. Invariants: decode never
// panics; no count read from the input allocates beyond the input's size
// (every count is bounded by the bytes left to back it); and when decode
// succeeds, re-encoding the entry and decoding it again reproduces it
// exactly.
func FuzzCacheEntryRoundTrip(f *testing.F) {
	seeds := []solver.CacheEntry{
		fixtureEntry(0),
		fixtureEntry(3),
		{Res: solver.Unsat},
		{Digest: solver.Digest{Sum: 1<<64 - 1, N: 2}, BSig: 1 << 40, Origin: 7, Res: solver.Sat,
			Cons: []solver.Constraint{
				{E: solver.LinExpr{Terms: []solver.Term{{Coeff: -1 << 40, Var: -3}, {Coeff: 5, Var: 1 << 20}}, Const: 1 << 50}, Op: solver.OpNe},
				{E: solver.LinExpr{Const: -9}, Op: solver.OpLe},
			},
			Model: solver.ModelOf(map[solver.Var]int64{-3: -1 << 60, 1 << 20: 0})},
	}
	for i := range seeds {
		f.Add(appendEntry(nil, &seeds[i]))
	}
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 3, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e, err := decodeEntry(corpus.NewByteReader(data))
		runtime.ReadMemStats(&after)
		// A few dozen bytes of Go values per input byte, plus slack for the
		// runtime's own bookkeeping; an unchecked count costs megabytes.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+64<<10); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), alloc, limit)
		}
		if err != nil {
			return // malformed input rejected cleanly — that's the contract
		}
		enc := appendEntry(nil, &e)
		r := corpus.NewByteReader(enc)
		e2, err := decodeEntry(r)
		if err != nil {
			t.Fatalf("re-decode of re-encoded entry failed: %v\nentry: %+v", err, e)
		}
		if r.Len() != 0 {
			t.Fatalf("re-decode left %d trailing bytes", r.Len())
		}
		if !reflect.DeepEqual(e, e2) {
			t.Fatalf("round trip changed entry:\n first: %+v\nsecond: %+v", e, e2)
		}
	})
}
