package summary

import (
	"hash/fnv"
	"sort"

	"repro/internal/bytecode"
	"repro/internal/minic"
)

// FnEffects is the per-function side-effect set derived from bytecode:
// which global slots the function may write (transitively), whether it may
// write through a buffer, and whether it is eligible for path-summary
// mining. Havoc summaries for out-of-scope calls are built from this
// record: every possibly-written global is replaced by a fresh symbolic
// value and every buffer argument is smeared when WritesBuf holds.
type FnEffects struct {
	// WritesGlobals lists global slots the function or any transitive
	// callee may store to (sorted, deduplicated).
	WritesGlobals []int
	// ReadsGlobals lists global slots possibly loaded (sorted).
	ReadsGlobals []int
	// WritesBuf marks possible writes through buffer values (bufwrite
	// anywhere in the transitive call graph). Buffers are passed by
	// reference, so a havocked call must smear its buffer arguments.
	WritesBuf bool
	// UsesBuiltin marks any builtin use: input channels, buffer and string
	// operations, prints, assertions. Builtins can fault, allocate fresh
	// solver variables, and touch the input registry, so their presence
	// disqualifies a function from summary mining.
	UsesBuiltin bool
	// MayFault marks possible faults (assert/abort, buffer and string
	// oracles, division/modulo). Havoc replaces the callee wholesale, so
	// faults inside out-of-scope code go undetected — callers surface this
	// in the documented soundness caveat.
	MayFault bool
	// Calls lists direct callee indices (sorted, deduplicated).
	Calls []int
	// Summarizable marks leaf functions over int parameters with an int or
	// void result and no side effects at all: no calls, no builtins, no
	// global access, no buffers, no division. Exactly the fragment whose
	// complete behavior a finite set of (entry constraints → return
	// expression) path summaries can capture.
	Summarizable bool
}

// Analyze derives the effect record of every function in prog, transitively
// closed over the call graph (indexed by Fn.Index). The analysis is a
// fixpoint over direct effects, so mutual recursion converges.
func Analyze(prog *bytecode.Program) []FnEffects {
	n := len(prog.Funcs)
	fx := make([]FnEffects, n)
	writes := make([]map[int]bool, n)
	reads := make([]map[int]bool, n)

	// Direct effects.
	for i, fn := range prog.Funcs {
		e := &fx[i]
		writes[i] = make(map[int]bool)
		reads[i] = make(map[int]bool)
		calls := make(map[int]bool)
		divmod := false
		nonIntOps := false
		for _, in := range fn.Code {
			switch in.Op {
			case bytecode.OpStoreGlobal:
				writes[i][in.A] = true
			case bytecode.OpLoadGlobal:
				reads[i][in.A] = true
			case bytecode.OpCall:
				calls[in.A] = true
			case bytecode.OpBuiltin:
				e.UsesBuiltin = true
				switch minic.Builtin(in.A) {
				case minic.BuiltinBufWrite:
					e.WritesBuf = true
					e.MayFault = true
				case minic.BuiltinBufRead, minic.BuiltinChar,
					minic.BuiltinAssert, minic.BuiltinAbort:
					e.MayFault = true
				}
			case bytecode.OpBin:
				if op := minic.BinOp(in.A); op == minic.OpDiv || op == minic.OpMod {
					divmod = true
					e.MayFault = true
				}
			case bytecode.OpNewBuf, bytecode.OpConstStr:
				nonIntOps = true
			}
		}
		for c := range calls {
			e.Calls = append(e.Calls, c)
		}
		sort.Ints(e.Calls)
		// Static summarizability filter: a leaf over ints with no effects.
		// This is the fragment's one definition: the miner steps whatever
		// it admits without re-checking opcodes, so it must be sound. It
		// need not be tight: a mined path that mentions a non-parameter
		// variable (a nonlinear product's fresh one) still fails the mine.
		e.Summarizable = len(e.Calls) == 0 && !e.UsesBuiltin && !divmod &&
			!nonIntOps && len(writes[i]) == 0 && len(reads[i]) == 0 &&
			fn.Name != bytecode.InitFuncName &&
			(fn.Ret == minic.TypeInt || fn.Ret == minic.TypeVoid)
		for _, t := range fn.ParamTypes {
			if t != minic.TypeInt {
				e.Summarizable = false
			}
		}
	}

	// Transitive closure (fixpoint: effects flow from callee to caller).
	for changed := true; changed; {
		changed = false
		for i := range fx {
			for _, c := range fx[i].Calls {
				if c < 0 || c >= n {
					continue
				}
				for g := range writes[c] {
					if !writes[i][g] {
						writes[i][g] = true
						changed = true
					}
				}
				for g := range reads[c] {
					if !reads[i][g] {
						reads[i][g] = true
						changed = true
					}
				}
				if fx[c].WritesBuf && !fx[i].WritesBuf {
					fx[i].WritesBuf = true
					changed = true
				}
				if fx[c].UsesBuiltin && !fx[i].UsesBuiltin {
					fx[i].UsesBuiltin = true
					changed = true
				}
				if fx[c].MayFault && !fx[i].MayFault {
					fx[i].MayFault = true
					changed = true
				}
			}
		}
	}
	for i := range fx {
		fx[i].WritesGlobals = sortedKeys(writes[i])
		fx[i].ReadsGlobals = sortedKeys(reads[i])
	}
	return fx
}

func sortedKeys(m map[int]bool) []int {
	if len(m) == 0 {
		return nil
	}
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// FnHash returns a content hash of the function's bytecode — the summary
// cache key. Positions and the function name are excluded (identical bodies
// share summaries); the signature (param count/types, return type) is mixed
// in because summaries are expressed over canonical parameter variables.
// Only leaf functions are summarized, so call operands never smuggle in
// context the hash misses.
func FnHash(fn *bytecode.Fn) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	word(uint64(len(fn.ParamTypes)))
	for _, t := range fn.ParamTypes {
		word(uint64(t))
	}
	word(uint64(fn.Ret))
	word(uint64(fn.NumLocals))
	for _, in := range fn.Code {
		word(uint64(in.Op))
		word(uint64(int64(in.A)))
		word(uint64(int64(in.B)))
		word(uint64(in.Imm))
		if in.Str != "" {
			h.Write([]byte(in.Str))
		}
	}
	return h.Sum64()
}

// HashProgram returns the per-function hash table for prog, indexed by
// Fn.Index. Computed once per run and shared read-only across executors.
func HashProgram(prog *bytecode.Program) []uint64 {
	out := make([]uint64, len(prog.Funcs))
	for i, fn := range prog.Funcs {
		out[i] = FnHash(fn)
	}
	return out
}
