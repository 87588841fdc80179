package symexec

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/bytecode"
	"repro/internal/interp"
	"repro/internal/minic"
	"repro/internal/solver"
)

// InputSpec configures the program's symbolic environment, the analogue of
// KLEE's symbolic-argument setup. The paper notes (§VII-A) that both
// StatSym and KLEE are configured with "semantically reasonable and
// required program input options": fixed option strings stay concrete,
// payload inputs become symbolic with a declared maximum size.
type InputSpec struct {
	// MaxStrLen bounds symbolic string lengths (KLEE's symbolic size).
	// Zero means DefaultMaxStrLen.
	MaxStrLen int64
	// StrLenMax overrides MaxStrLen per input channel name.
	StrLenMax map[string]int64

	// IntMin/IntMax bound symbolic integers; both zero means
	// [DefaultIntMin, DefaultIntMax].
	IntMin, IntMax int64

	// Concrete values: channels listed here are not symbolic.
	ConcreteInts map[string]int64
	ConcreteStrs map[string]string
	ConcreteEnv  map[string]string

	// Args configures command-line arguments; NArgs is the argument count
	// reported by nargs(). Argument i is concrete when ConcreteArgs[i] is
	// set, otherwise symbolic.
	NArgs        int
	ConcreteArgs map[int]string

	// SeedInput, when set, biases exploration toward the concrete path
	// this input takes: as symbolic channels register, the seed's values
	// are installed into the state's cached model, so branch decisions
	// consistent with the seed are taken without solver queries and the
	// seeded path is explored first. This is the failure-replay mode of
	// BugRedux-style reproduction (the paper's ref [20]): given a crashing
	// field input, the engine re-derives its path and constraints
	// directly. Inputs remain fully symbolic — only the search order
	// changes.
	SeedInput *interp.Input
}

// Default symbolic-input bounds.
const (
	DefaultMaxStrLen = 64
	DefaultIntMin    = -(1 << 31)
	DefaultIntMax    = 1 << 31
)

func (s *InputSpec) strLenMax(name string) int64 {
	if s != nil && s.StrLenMax != nil {
		if v, ok := s.StrLenMax[name]; ok {
			return v
		}
	}
	if s != nil && s.MaxStrLen > 0 {
		return s.MaxStrLen
	}
	return DefaultMaxStrLen
}

func (s *InputSpec) intBounds() (int64, int64) {
	if s == nil || (s.IntMin == 0 && s.IntMax == 0) {
		return DefaultIntMin, DefaultIntMax
	}
	return s.IntMin, s.IntMax
}

// channelClass distinguishes the four input channels.
type channelClass int

const (
	chanInt channelClass = iota + 1
	chanStr
	chanEnv
	chanArg
)

type byteKey struct {
	strID int
	idx   int64
}

// inputRegistry allocates solver variables for symbolic inputs. It is
// shared by all states (as with KLEE's make_symbolic, the same named input
// denotes the same symbolic object on every path) and materializes string
// byte variables lazily with deterministic identity.
//
// The registry is safe for concurrent use — all map accesses go through mu.
// Under the parallel frontier engine determinism additionally requires that
// variable IDs not depend on which worker registers a channel first; the
// engine arranges that by prescanning the bytecode for literal channel
// names (see prescan) and by reserving byte-variable blocks per string
// (SymString.ByteBase) so lazily touched bytes have pre-assigned IDs.
type inputRegistry struct {
	table *solver.VarTable
	spec  *InputSpec

	mu sync.RWMutex

	// overflow, when set (parallel mode), allocates variables for channels
	// and bytes that escaped the prescan/byte blocks — computed channel
	// names, out-of-block byte indexes. Such late allocations are ordered
	// by the registry lock, not by the epoch schedule, so they are the one
	// place parallel runs may diverge; none of the bundled apps hits it.
	// nil means allocate densely from the table (width-1 epochs).
	overflow solver.VarAllocator
	// blocks enables byte-block reservation for newly created strings.
	blocks bool

	ints map[string]solver.Var
	strs map[string]*SymString // keyed "s:<name>", "e:<name>", "a:<idx>"

	bytes     map[byteKey]solver.Var
	nextStrID int

	// Registration order for deterministic witness construction.
	intOrder []string
	strOrder []string

	// seedStrs maps a seeded symbolic string's ID to the seed value, so
	// byte variables can be seeded as they materialize.
	seedStrs map[int]string
}

// allocLocked returns the allocator for late registrations; caller holds mu.
func (r *inputRegistry) allocLocked() solver.VarAllocator {
	if r.overflow != nil {
		return r.overflow
	}
	return r.table
}

// prescan walks the bytecode for input builtins whose channel name is a
// string literal (it always is in MiniC source) and registers those
// channels — plus every argv slot — before execution begins, so channel
// variable IDs are fixed by program text rather than by which worker
// executes an input call first.
func (r *inputRegistry) prescan(prog *bytecode.Program) {
	for _, fn := range prog.Funcs {
		for i := 0; i+1 < len(fn.Code); i++ {
			if fn.Code[i].Op != bytecode.OpConstStr ||
				fn.Code[i+1].Op != bytecode.OpBuiltin || fn.Code[i+1].B != 1 {
				continue
			}
			name := fn.Code[i].Str
			switch minic.Builtin(fn.Code[i+1].A) {
			case minic.BuiltinInputInt:
				r.intInput(name)
			case minic.BuiltinInputString:
				r.strInput(name)
			case minic.BuiltinEnv:
				r.envInput(name)
			}
		}
	}
	for i := 0; i < r.spec.NArgs; i++ {
		r.argInput(int64(i))
	}
}

// seedValue returns the seed's value for a channel, if seeding is active.
func (r *inputRegistry) seedInt(name string) (int64, bool) {
	s := r.spec.SeedInput
	if s == nil || s.Ints == nil {
		return 0, false
	}
	v, ok := s.Ints[name]
	return v, ok
}

func (r *inputRegistry) seedStr(kind byte, name string, argIdx int64) (string, bool) {
	s := r.spec.SeedInput
	if s == nil {
		return "", false
	}
	switch kind {
	case 's':
		v, ok := s.Strs[name]
		return v, ok
	case 'e':
		v, ok := s.Env[name]
		return v, ok
	case 'a':
		if argIdx >= 0 && argIdx < int64(len(s.Args)) {
			return s.Args[argIdx], true
		}
	}
	return "", false
}

// noteSeedStr records the seed value for a symbolic string.
func (r *inputRegistry) noteSeedStr(id int, val string) {
	r.mu.Lock()
	if r.seedStrs == nil {
		r.seedStrs = make(map[int]string)
	}
	r.seedStrs[id] = val
	r.mu.Unlock()
}

// seededByte returns the seed byte for (string, index), if any.
func (r *inputRegistry) seededByte(id int, idx int64) (int64, bool) {
	r.mu.RLock()
	v, ok := r.seedStrs[id]
	r.mu.RUnlock()
	if !ok || idx < 0 || idx >= int64(len(v)) {
		return 0, false
	}
	return int64(v[idx]), true
}

func newInputRegistry(table *solver.VarTable, spec *InputSpec) *inputRegistry {
	if spec == nil {
		spec = &InputSpec{}
	}
	return &inputRegistry{
		table: table,
		spec:  spec,
		ints:  make(map[string]solver.Var),
		strs:  make(map[string]*SymString),
		bytes: make(map[byteKey]solver.Var),
	}
}

// intInput returns the value of input_int(name).
func (r *inputRegistry) intInput(name string) Value {
	if v, ok := r.spec.ConcreteInts[name]; ok {
		return IntVal(v)
	}
	r.mu.RLock()
	v, ok := r.ints[name]
	r.mu.RUnlock()
	if ok {
		return LinVal(solver.VarExpr(v))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.ints[name]; ok {
		return LinVal(solver.VarExpr(v))
	}
	lo, hi := r.spec.intBounds()
	v = r.allocLocked().NewVarBounded("sym_"+name, lo, hi)
	r.ints[name] = v
	r.intOrder = append(r.intOrder, name)
	return LinVal(solver.VarExpr(v))
}

// strInput returns the value of input_string(name).
func (r *inputRegistry) strInput(name string) Value {
	if v, ok := r.spec.ConcreteStrs[name]; ok {
		return StrVal(v)
	}
	return SymStrVal(r.symStr("s:"+name, name))
}

// envInput returns the value of env(name).
func (r *inputRegistry) envInput(name string) Value {
	if v, ok := r.spec.ConcreteEnv[name]; ok {
		return StrVal(v)
	}
	return SymStrVal(r.symStr("e:"+name, name))
}

// argInput returns the value of arg(i) for concrete i.
func (r *inputRegistry) argInput(i int64) Value {
	if i < 0 || i >= int64(r.spec.NArgs) {
		return StrVal("")
	}
	if v, ok := r.spec.ConcreteArgs[int(i)]; ok {
		return StrVal(v)
	}
	return SymStrVal(r.symStr(fmt.Sprintf("a:%d", i), fmt.Sprintf("arg%d", i)))
}

// symStr returns (creating on first use) the symbolic string for a channel
// key.
func (r *inputRegistry) symStr(key, label string) *SymString {
	r.mu.RLock()
	s, ok := r.strs[key]
	r.mu.RUnlock()
	if ok {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.strs[key]; ok {
		return s
	}
	s = r.newStrLocked(r.allocLocked(), label, r.spec.strLenMax(label))
	r.strs[key] = s
	r.strOrder = append(r.strOrder, key)
	return s
}

// newStrLocked builds a symbolic string, reserving its byte-variable block
// when blocks are enabled. Caller holds mu (for nextStrID).
func (r *inputRegistry) newStrLocked(al solver.VarAllocator, label string, maxLen int64) *SymString {
	r.nextStrID++
	s := &SymString{
		ID:     r.nextStrID,
		Label:  label,
		LenVar: al.NewVarBounded("len("+label+")", 0, maxLen),
	}
	if r.blocks && maxLen > 0 {
		// A string's length never exceeds maxLen, so indexes 0..maxLen-1
		// cover every in-bounds byte. (Out-of-range probes fall back to the
		// locked overflow path in byteVar.)
		s.ByteBase, s.ByteStride = al.Reserve(int(maxLen), solver.VarInfo{
			Name: label, HasLo: true, HasHi: true, Lo: 0, Hi: 255,
		})
		s.ByteLen = int(maxLen)
	}
	return s
}

// freshStr allocates an anonymous symbolic string (results of concat,
// substr, atoi-style approximations). It is not an input channel and does
// not appear in witnesses. al chooses where its variables come from: a
// lone slot passes the dense table, slots of wider epochs their own lane.
func (r *inputRegistry) freshStr(al solver.VarAllocator, label string, maxLen int64) *SymString {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.newStrLocked(al, label, maxLen)
}

// byteVar returns the solver variable for s[idx], materializing it on first
// use. Identity is deterministic per (string, index).
func (r *inputRegistry) byteVar(s *SymString, idx int64) solver.Var {
	if s.ByteStride != 0 && idx >= 0 && idx < int64(s.ByteLen) {
		// Pure arithmetic: the block's metadata (bounds, indexed name) was
		// registered once at Reserve time, so first and repeat accesses
		// alike touch no table state.
		return s.ByteBase + solver.Var(int32(idx)*s.ByteStride)
	}
	key := byteKey{strID: s.ID, idx: idx}
	r.mu.RLock()
	v, ok := r.bytes[key]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.bytes[key]; ok {
		return v
	}
	v = r.allocLocked().NewVarBounded(fmt.Sprintf("%s[%d]", s.Label, idx), 0, 255)
	r.bytes[key] = v
	return v
}

// defaultWitnessByte fills unconstrained positions of witness strings.
const defaultWitnessByte = 'a'

// witness converts a solver model into a concrete program input that
// steers the concrete VM down the discovered path.
func (r *inputRegistry) witness(m *solver.Model) *interp.Input {
	in := &interp.Input{
		Ints: make(map[string]int64),
		Strs: make(map[string]string),
		Env:  make(map[string]string),
	}
	for name, v := range r.spec.ConcreteInts {
		in.Ints[name] = v
	}
	for name, v := range r.spec.ConcreteStrs {
		in.Strs[name] = v
	}
	for name, v := range r.spec.ConcreteEnv {
		in.Env[name] = v
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range r.intOrder {
		if v, ok := m.Get(r.ints[name]); ok {
			in.Ints[name] = v
		} else {
			in.Ints[name] = 0
		}
	}
	for _, key := range r.strOrder {
		s := r.strs[key]
		str := r.materializeLocked(s, m)
		switch key[0] {
		case 's':
			in.Strs[s.Label] = str
		case 'e':
			in.Env[s.Label] = str
		}
	}
	// Arguments: assemble the full argv.
	if r.spec.NArgs > 0 {
		in.Args = make([]string, r.spec.NArgs)
		for i := 0; i < r.spec.NArgs; i++ {
			if v, ok := r.spec.ConcreteArgs[i]; ok {
				in.Args[i] = v
				continue
			}
			if s, ok := r.strs[fmt.Sprintf("a:%d", i)]; ok {
				in.Args[i] = r.materializeLocked(s, m)
			}
		}
	}
	return in
}

// materialize renders a symbolic string under a model: length from the
// model (0 when unconstrained), bytes from materialized byte variables,
// filler elsewhere.
func (r *inputRegistry) materialize(s *SymString, m *solver.Model) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.materializeLocked(s, m)
}

func (r *inputRegistry) materializeLocked(s *SymString, m *solver.Model) string {
	if s.IsLit {
		return s.Lit
	}
	length, ok := m.Get(s.LenVar)
	if !ok {
		length = 0
	}
	if length < 0 {
		length = 0
	}
	const maxWitnessLen = 1 << 20
	if length > maxWitnessLen {
		length = maxWitnessLen
	}
	buf := make([]byte, length)
	for i := int64(0); i < length; i++ {
		b := byte(defaultWitnessByte)
		v, ok := solver.NoVar, false
		if s.ByteStride != 0 && i < int64(s.ByteLen) {
			v, ok = s.ByteBase+solver.Var(int32(i)*s.ByteStride), true
		} else {
			v, ok = r.bytes[byteKey{strID: s.ID, idx: i}]
		}
		if ok {
			if mv, ok := m.Get(v); ok && mv >= 0 && mv <= 255 {
				b = byte(mv)
			}
		}
		buf[i] = b
	}
	return string(buf)
}

// symbolicInputNames lists the registered symbolic channels (for reports).
func (r *inputRegistry) symbolicInputNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.intOrder)+len(r.strOrder))
	names = append(names, r.intOrder...)
	for _, key := range r.strOrder {
		names = append(names, r.strs[key].Label)
	}
	sort.Strings(names)
	return names
}
