// Package interp is the concrete MiniC virtual machine. It executes compiled
// bytecode over concrete inputs and reports program faults (buffer
// overflows, failed assertions, aborts) — the "failure manifestations" of
// the paper's fault/failure model (§II, Fig. 1). The program monitor drives
// this VM to produce runtime logs.
package interp

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/bytecode"
	"repro/internal/minic"
	"repro/internal/trace"
)

// ValueKind is the dynamic type of a runtime value.
type ValueKind int

// Value kinds.
const (
	KindInt ValueKind = iota + 1
	KindString
	KindBuf
)

// Buffer is a fixed-capacity array of byte-sized cells allocated by a
// MiniC `buf` declaration. Writing outside [0, Cap) is the buffer-overflow
// fault the evaluation programs contain.
type Buffer struct {
	Cap  int
	Data []int64
}

// NewBuffer allocates a zeroed buffer.
func NewBuffer(capacity int) *Buffer {
	return &Buffer{Cap: capacity, Data: make([]int64, capacity)}
}

// Value is a concrete runtime value.
type Value struct {
	Kind ValueKind
	Int  int64
	Str  string
	Buf  *Buffer
}

// IntVal constructs an int value.
func IntVal(v int64) Value { return Value{Kind: KindInt, Int: v} }

// StrVal constructs a string value.
func StrVal(s string) Value { return Value{Kind: KindString, Str: s} }

// BufVal constructs a buffer reference value.
func BufVal(b *Buffer) Value { return Value{Kind: KindBuf, Buf: b} }

// String renders the value for print().
func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindString:
		return v.Str
	case KindBuf:
		return fmt.Sprintf("buf[%d]", v.Buf.Cap)
	default:
		return "<invalid>"
	}
}

// FaultKind classifies a program failure.
type FaultKind int

// Fault kinds. FaultNone means the run completed normally.
const (
	FaultNone FaultKind = iota
	FaultBufferOverflow
	FaultBufferOOBRead
	FaultAssert
	FaultAbort
	FaultDivZero
	FaultStringIndex
)

var faultNames = map[FaultKind]string{
	FaultNone:           "none",
	FaultBufferOverflow: "buffer-overflow",
	FaultBufferOOBRead:  "buffer-oob-read",
	FaultAssert:         "assertion-failure",
	FaultAbort:          "abort",
	FaultDivZero:        "division-by-zero",
	FaultStringIndex:    "string-index-oob",
}

// String returns a stable name used in run logs.
func (f FaultKind) String() string {
	if s, ok := faultNames[f]; ok {
		return s
	}
	return fmt.Sprintf("FaultKind(%d)", int(f))
}

// Input supplies the program's external environment: named symbolic-input
// channels (input_int / input_string), environment variables, and
// command-line arguments.
type Input struct {
	Ints map[string]int64
	Strs map[string]string
	Env  map[string]string
	Args []string
}

// Int returns the named int input (zero if absent).
func (in *Input) Int(name string) int64 {
	if in == nil {
		return 0
	}
	return in.Ints[name]
}

// Str returns the named string input ("" if absent).
func (in *Input) Str(name string) string {
	if in == nil {
		return ""
	}
	return in.Strs[name]
}

// EnvVar returns the named environment variable ("" if absent).
func (in *Input) EnvVar(name string) string {
	if in == nil {
		return ""
	}
	return in.Env[name]
}

// Arg returns argument i ("" if out of range).
func (in *Input) Arg(i int64) string {
	if in == nil || i < 0 || i >= int64(len(in.Args)) {
		return ""
	}
	return in.Args[i]
}

// Lines renders the input one line per value, so that equal inputs print
// alike: "int k = v" lines, then "string k = ..." and "env k = ..." lines,
// each kind in key order, then one "args = ..." line when there are
// arguments. quote renders a string value.
func (in *Input) Lines(quote func(string) string) []string {
	var out []string
	for _, k := range sortedKeys(in.Ints) {
		out = append(out, fmt.Sprintf("int %s = %d", k, in.Ints[k]))
	}
	for _, k := range sortedKeys(in.Strs) {
		out = append(out, fmt.Sprintf("string %s = %s", k, quote(in.Strs[k])))
	}
	for _, k := range sortedKeys(in.Env) {
		out = append(out, fmt.Sprintf("env %s = %s", k, quote(in.Env[k])))
	}
	if len(in.Args) > 0 {
		line := "args ="
		for _, a := range in.Args {
			line += " " + quote(a)
		}
		out = append(out, line)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// HookEvent is delivered to the instrumentation hook at function entry and
// exit — the Fjalar-style observation points.
type HookEvent struct {
	Kind    trace.EventKind
	Fn      *bytecode.Fn
	Params  []Value // valid at entry
	Ret     *Value  // valid at exit for non-void functions
	Globals []Value // snapshot reference (do not mutate)
}

// Hook receives instrumentation events.
type Hook func(HookEvent)

// Config controls a VM run.
type Config struct {
	// MaxSteps bounds executed instructions (0 means DefaultMaxSteps).
	MaxSteps int
	// MaxDepth bounds call depth (0 means DefaultMaxDepth).
	MaxDepth int
	// Hook, when non-nil, observes function entry/exit events.
	Hook Hook
	// CollectOutput records print() output into Result.Output.
	CollectOutput bool
}

// Default resource limits.
const (
	DefaultMaxSteps = 2_000_000
	DefaultMaxDepth = 256
)

// Resource-exhaustion errors (engine limits, not program faults).
var (
	ErrStepLimit  = errors.New("interp: step limit exceeded")
	ErrStackDepth = errors.New("interp: call depth exceeded")
)

// Result summarizes a completed run.
type Result struct {
	Fault     FaultKind
	FaultFunc string
	FaultPos  minic.Pos
	Ret       Value
	Steps     int
	Output    []string
}

// Faulty reports whether the run ended in a program fault.
func (r *Result) Faulty() bool { return r.Fault != FaultNone }

type frame struct {
	fn     *bytecode.Fn
	pc     int
	locals []Value
	stack  []Value
}

// vm is one run's machine state. frames[:depth] is the call stack; the
// frames past it belong to returned calls and are reused, operand stack
// included, by the next call at their depth. Locals are never reused:
// a hook may keep an entry event's Params.
type vm struct {
	prog    *bytecode.Program
	input   *Input
	cfg     Config
	globals []Value
	frames  []*frame
	depth   int
	steps   int
	out     []string
}

// programFault carries a fault out of the execution loop.
type programFault struct {
	kind FaultKind
	fn   string
	pos  minic.Pos
}

func (f *programFault) Error() string {
	return fmt.Sprintf("fault %s in %s at %s", f.kind, f.fn, f.pos)
}

// Run executes the program's main function over the given input.
func Run(p *bytecode.Program, in *Input, cfg Config) (*Result, error) {
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = DefaultMaxDepth
	}
	m := &vm{prog: p, input: in, cfg: cfg, globals: make([]Value, len(p.Globals))}
	for i, g := range p.Globals {
		if g.Type == minic.TypeString {
			m.globals[i] = StrVal("")
		} else {
			m.globals[i] = IntVal(0)
		}
	}
	res := &Result{}
	// Global initializers run first, uninstrumented.
	if err := m.callAndRun(p.Funcs[p.InitIndex], nil, false, res); err != nil {
		return res, err
	}
	err := m.callAndRun(p.Funcs[p.MainIndex], nil, true, res)
	res.Steps = m.steps
	res.Output = m.out
	var pf *programFault
	if errors.As(err, &pf) {
		res.Fault = pf.kind
		res.FaultFunc = pf.fn
		res.FaultPos = pf.pos
		return res, nil
	}
	return res, err
}

// callAndRun pushes a frame for fn and runs the loop until that frame
// returns. Used for $init and main; nested calls are handled inline.
func (m *vm) callAndRun(fn *bytecode.Fn, args []Value, hook bool, res *Result) error {
	fr := m.pushFrame(fn, args)
	if hook {
		m.fireHook(trace.EventEnter, fr, nil)
	}
	base := m.depth - 1
	for m.depth > base {
		if err := m.step(res); err != nil {
			return err
		}
	}
	return nil
}

// pushFrame enters fn with args copied into its locals. args may alias
// the caller's operand stack.
func (m *vm) pushFrame(fn *bytecode.Fn, args []Value) *frame {
	if m.depth == len(m.frames) {
		m.frames = append(m.frames, &frame{})
	}
	fr := m.frames[m.depth]
	m.depth++
	fr.fn, fr.pc, fr.stack = fn, 0, fr.stack[:0]
	fr.locals = make([]Value, fn.NumLocals)
	copy(fr.locals, args)
	return fr
}

func (m *vm) fireHook(kind trace.EventKind, fr *frame, ret *Value) {
	if m.cfg.Hook == nil || fr.fn.Name == bytecode.InitFuncName {
		return
	}
	ev := HookEvent{Kind: kind, Fn: fr.fn, Globals: m.globals, Ret: ret}
	if kind == trace.EventEnter {
		ev.Params = fr.locals[:len(fr.fn.ParamNames)]
	}
	m.cfg.Hook(ev)
}

func (m *vm) top() *frame { return m.frames[m.depth-1] }

func (fr *frame) push(v Value) { fr.stack = append(fr.stack, v) }

func (fr *frame) pop() Value {
	v := fr.stack[len(fr.stack)-1]
	fr.stack = fr.stack[:len(fr.stack)-1]
	return v
}

// popN pops the top n operands and returns them in push order. They stay
// readable until the next push, which overwrites the first of them.
func (fr *frame) popN(n int) []Value {
	base := len(fr.stack) - n
	args := fr.stack[base:]
	fr.stack = fr.stack[:base]
	return args
}

func (m *vm) fault(kind FaultKind, pos minic.Pos) error {
	return &programFault{kind: kind, fn: m.top().fn.Name, pos: pos}
}

// step executes one instruction of the top frame.
func (m *vm) step(res *Result) error {
	m.steps++
	if m.steps > m.cfg.MaxSteps {
		return ErrStepLimit
	}
	fr := m.top()
	in := &fr.fn.Code[fr.pc]
	fr.pc++
	switch in.Op {
	case bytecode.OpNop:
	case bytecode.OpConstInt:
		fr.push(IntVal(in.Imm))
	case bytecode.OpConstStr:
		fr.push(StrVal(in.Str))
	case bytecode.OpLoadLocal:
		fr.push(fr.locals[in.A])
	case bytecode.OpStoreLocal:
		fr.locals[in.A] = fr.pop()
	case bytecode.OpLoadGlobal:
		fr.push(m.globals[in.A])
	case bytecode.OpStoreGlobal:
		m.globals[in.A] = fr.pop()
	case bytecode.OpNewBuf:
		fr.locals[in.A] = BufVal(NewBuffer(in.B))
	case bytecode.OpNeg:
		v := fr.pop()
		fr.push(IntVal(-v.Int))
	case bytecode.OpNot:
		v := fr.pop()
		if v.Int == 0 {
			fr.push(IntVal(1))
		} else {
			fr.push(IntVal(0))
		}
	case bytecode.OpBin:
		r := fr.pop()
		l := fr.pop()
		v, err := m.binOp(minic.BinOp(in.A), l, r, in.Pos)
		if err != nil {
			return err
		}
		fr.push(v)
	case bytecode.OpJump:
		fr.pc = in.A
	case bytecode.OpJumpZ:
		if fr.pop().Int == 0 {
			fr.pc = in.A
		}
	case bytecode.OpJumpNZ:
		if fr.pop().Int != 0 {
			fr.pc = in.A
		}
	case bytecode.OpCall:
		if m.depth >= m.cfg.MaxDepth {
			return ErrStackDepth
		}
		nfr := m.pushFrame(m.prog.Funcs[in.A], fr.popN(in.B))
		m.fireHook(trace.EventEnter, nfr, nil)
	case bytecode.OpBuiltin:
		if err := m.builtin(minic.Builtin(in.A), in.B, in.Pos, res); err != nil {
			return err
		}
	case bytecode.OpReturn:
		var ret Value
		if in.A == 1 {
			ret = fr.pop()
		}
		if m.cfg.Hook != nil {
			// Each exit event gets its own copy of the return value (a
			// hook may keep Ret); without a hook ret stays off the heap.
			var retPtr *Value
			if in.A == 1 {
				r := ret
				retPtr = &r
			}
			m.fireHook(trace.EventLeave, fr, retPtr)
		}
		m.depth--
		if m.depth == 0 {
			// Base frame ($init or main) finished; callAndRun's loop exits.
			res.Ret = ret
			return nil
		}
		if in.A == 1 {
			m.top().push(ret)
		}
	case bytecode.OpPop:
		fr.pop()
	default:
		return fmt.Errorf("interp: unknown opcode %s", in.Op)
	}
	return nil
}

func boolInt(b bool) Value {
	if b {
		return IntVal(1)
	}
	return IntVal(0)
}

func (m *vm) binOp(op minic.BinOp, l, r Value, pos minic.Pos) (Value, error) {
	// String operations.
	if l.Kind == KindString || r.Kind == KindString {
		switch op {
		case minic.OpAdd:
			return StrVal(l.Str + r.Str), nil
		case minic.OpEq:
			return boolInt(l.Str == r.Str), nil
		case minic.OpNeq:
			return boolInt(l.Str != r.Str), nil
		default:
			return Value{}, fmt.Errorf("interp: invalid string operator %s at %s", op, pos)
		}
	}
	a, b := l.Int, r.Int
	switch op {
	case minic.OpAdd:
		return IntVal(a + b), nil
	case minic.OpSub:
		return IntVal(a - b), nil
	case minic.OpMul:
		return IntVal(a * b), nil
	case minic.OpDiv:
		if b == 0 {
			return Value{}, m.fault(FaultDivZero, pos)
		}
		return IntVal(a / b), nil
	case minic.OpMod:
		if b == 0 {
			return Value{}, m.fault(FaultDivZero, pos)
		}
		return IntVal(a % b), nil
	case minic.OpEq:
		return boolInt(a == b), nil
	case minic.OpNeq:
		return boolInt(a != b), nil
	case minic.OpLt:
		return boolInt(a < b), nil
	case minic.OpLe:
		return boolInt(a <= b), nil
	case minic.OpGt:
		return boolInt(a > b), nil
	case minic.OpGe:
		return boolInt(a >= b), nil
	default:
		return Value{}, fmt.Errorf("interp: unknown operator %s at %s", op, pos)
	}
}

// builtin pops its operands in place: every case reads all of args
// before its one push.
func (m *vm) builtin(b minic.Builtin, nargs int, pos minic.Pos, res *Result) error {
	fr := m.top()
	args := fr.popN(nargs)
	switch b {
	case minic.BuiltinLen:
		fr.push(IntVal(int64(len(args[0].Str))))
	case minic.BuiltinChar:
		s, i := args[0].Str, args[1].Int
		if i < 0 || i >= int64(len(s)) {
			return m.fault(FaultStringIndex, pos)
		}
		fr.push(IntVal(int64(s[i])))
	case minic.BuiltinSubstr:
		s := args[0].Str
		i, j := args[1].Int, args[2].Int
		// Clamped semantics: out-of-range bounds are snapped to the valid
		// range rather than faulting (convenient for app code).
		if i < 0 {
			i = 0
		}
		if j > int64(len(s)) {
			j = int64(len(s))
		}
		if i > j {
			i = j
		}
		fr.push(StrVal(s[i:j]))
	case minic.BuiltinConcat:
		fr.push(StrVal(args[0].Str + args[1].Str))
	case minic.BuiltinStreq:
		fr.push(boolInt(args[0].Str == args[1].Str))
	case minic.BuiltinAtoi:
		fr.push(IntVal(atoi(args[0].Str)))
	case minic.BuiltinInputInt:
		fr.push(IntVal(m.input.Int(args[0].Str)))
	case minic.BuiltinInputString:
		fr.push(StrVal(m.input.Str(args[0].Str)))
	case minic.BuiltinEnv:
		fr.push(StrVal(m.input.EnvVar(args[0].Str)))
	case minic.BuiltinArg:
		fr.push(StrVal(m.input.Arg(args[0].Int)))
	case minic.BuiltinNargs:
		var n int64
		if m.input != nil {
			n = int64(len(m.input.Args))
		}
		fr.push(IntVal(n))
	case minic.BuiltinPrint:
		if m.cfg.CollectOutput {
			m.out = append(m.out, args[0].String())
		}
	case minic.BuiltinBufWrite:
		buf, i, v := args[0].Buf, args[1].Int, args[2].Int
		if i < 0 || i >= int64(buf.Cap) {
			return m.fault(FaultBufferOverflow, pos)
		}
		buf.Data[i] = v
	case minic.BuiltinBufRead:
		buf, i := args[0].Buf, args[1].Int
		if i < 0 || i >= int64(buf.Cap) {
			return m.fault(FaultBufferOOBRead, pos)
		}
		fr.push(IntVal(buf.Data[i]))
	case minic.BuiltinBufCap:
		fr.push(IntVal(int64(args[0].Buf.Cap)))
	case minic.BuiltinBufStr:
		buf, n := args[0].Buf, args[1].Int
		if n < 0 {
			n = 0
		}
		if n > int64(buf.Cap) {
			n = int64(buf.Cap)
		}
		bs := make([]byte, n)
		for i := int64(0); i < n; i++ {
			bs[i] = byte(buf.Data[i])
		}
		fr.push(StrVal(string(bs)))
	case minic.BuiltinAssert:
		if args[0].Int == 0 {
			return m.fault(FaultAssert, pos)
		}
	case minic.BuiltinAbort:
		return m.fault(FaultAbort, pos)
	default:
		return fmt.Errorf("interp: unknown builtin %d", int(b))
	}
	return nil
}

// atoi implements C-style leading-integer parsing: optional sign, digits,
// stopping at the first non-digit; returns 0 for no digits.
func atoi(s string) int64 {
	i := 0
	for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
		i++
	}
	neg := false
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		neg = s[i] == '-'
		i++
	}
	var v int64
	start := i
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		v = v*10 + int64(s[i]-'0')
		i++
	}
	if i == start {
		return 0
	}
	if neg {
		return -v
	}
	return v
}
