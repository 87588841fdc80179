package symexec

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/durable"
	"repro/internal/solver"
	"repro/internal/symexec/snapshot"
)

// Checkpoint capture and resume. A checkpoint is the complete serialized
// search of a one-slot pure-mode executor — program, input spec, solver
// variable table, input registry, effort counters, and every live state —
// such that resuming it and running to completion produces the same result
// an uninterrupted run would have (except wall-clock fields). The solver's
// exact-match cache travels with the checkpoint, so even the hit/miss
// history — and with it every solver counter — replays identically.
//
// Capture is restricted to the configurations where that equivalence is
// provable: Workers=0, one state per epoch (no slot lanes, whose variable
// IDs are lane-striped), no guidance hook and no summarized calls (their
// closures cannot cross a process boundary), and a dense variable table.
// The equivalence additionally assumes the run stopped at a quantum
// boundary with a FIFO scheduler; a mid-quantum step-limit stop
// re-enqueues the interrupted state at the BFS tail, which is exactly the
// order the checkpoint preserves, so capture-after-StepLimited resumes
// faithfully.
const checkpointVersion = 1

// EncodeCheckpoint serializes the executor's current search. The scheduler
// is drained and re-filled in the same order, so a FIFO scheduler is
// unchanged by capture; order-sensitive schedulers other than BFS should
// not be captured mid-run.
func (ex *Executor) EncodeCheckpoint() ([]byte, error) {
	if err := ex.checkpointable(); err != nil {
		return nil, err
	}
	return ex.encodeCheckpoint(ex.res, ex.Solver, ex.visits, ex.frontier(), ex.suspended)
}

// encodeCheckpoint writes one checkpoint blob: program, input spec,
// variable table and input registry; the effort counters of res and the
// logical counters of counters; the executor's solver cache; the visit
// counts; then the active and suspended states.
func (ex *Executor) encodeCheckpoint(res *Result, counters *solver.CachedSolver, visits [][]int64, active, suspended []*State) ([]byte, error) {
	w := snapshot.NewWriter()
	w.Uvarint(checkpointVersion)
	snapshot.EncodeProgram(w, ex.Prog)
	EncodeSpec(w, ex.inputs.spec)
	encodeTable(w, ex.Table)
	e := newStateEncoder(w)
	encodeRegistry(e, ex.inputs)
	ex.encodeCounters(w, res, counters)
	encodeSolverCache(w, ex.Solver)
	encodeVisits(w, visits)
	pi := make(progIndex, len(ex.Prog.Funcs))
	for i, f := range ex.Prog.Funcs {
		pi[f] = i
	}
	for _, states := range [][]*State{active, suspended} {
		w.Int(len(states))
		for _, st := range states {
			if err := e.state(st, pi); err != nil {
				return nil, err
			}
		}
	}
	return w.Bytes(), nil
}

// frontier returns the scheduler's active states in dispatch order and
// re-enqueues them in that order (identity for FIFO schedulers).
func (ex *Executor) frontier() []*State {
	var active []*State
	for st := ex.sched.Next(); st != nil; st = ex.sched.Next() {
		active = append(active, st)
	}
	for _, st := range active {
		ex.sched.Add(st)
	}
	return active
}

// checkpointable reports whether this executor's configuration is inside
// the provable-equivalence envelope.
func (ex *Executor) checkpointable() error {
	switch {
	case ex.Opts.Workers > 0:
		return fmt.Errorf("symexec: checkpoint requires one state per epoch (Workers=0)")
	case ex.Opts.Hook != nil:
		return fmt.Errorf("symexec: checkpoint cannot capture a guidance hook")
	case ex.Opts.Calls != nil:
		return fmt.Errorf("symexec: checkpoint cannot capture a call policy")
	case !ex.Table.Dense():
		return fmt.Errorf("symexec: checkpoint requires a dense variable table")
	}
	return nil
}

func encodeTable(w *snapshot.Writer, t *solver.VarTable) {
	infos := t.Export()
	w.Int(len(infos))
	for _, vi := range infos {
		w.Sym(vi.Name)
		w.Bool(vi.HasLo)
		w.Bool(vi.HasHi)
		w.Varint(vi.Lo)
		w.Varint(vi.Hi)
	}
}

func decodeTable(r *snapshot.Reader) (*solver.VarTable, error) {
	n, err := r.Int()
	if err != nil {
		return nil, err
	}
	if n < 0 || n > r.Len() {
		return nil, fmt.Errorf("symexec: variable count %d out of range", n)
	}
	infos := make([]solver.VarInfo, n)
	for i := range infos {
		if infos[i].Name, err = r.Sym(); err != nil {
			return nil, err
		}
		if infos[i].HasLo, err = r.Bool(); err != nil {
			return nil, err
		}
		if infos[i].HasHi, err = r.Bool(); err != nil {
			return nil, err
		}
		if infos[i].Lo, err = r.Varint(); err != nil {
			return nil, err
		}
		if infos[i].Hi, err = r.Varint(); err != nil {
			return nil, err
		}
	}
	t := solver.NewVarTable()
	if err := t.Restore(infos); err != nil {
		return nil, err
	}
	return t, nil
}

// encodeRegistry writes the input registry through the state encoder so
// its symbolic-string identities join the shared side table (a state's
// local holding input_string("x") must decode to the same *SymString the
// registry hands the next input_string("x") call).
func encodeRegistry(e *stateEncoder, reg *inputRegistry) {
	w := e.w
	w.Int(len(reg.intOrder))
	for _, name := range reg.intOrder {
		w.Sym(name)
		w.Varint(int64(reg.ints[name]))
	}
	w.Int(len(reg.strOrder))
	for _, key := range reg.strOrder {
		w.Sym(key)
		e.symStr(reg.strs[key])
	}
	keys := make([]byteKey, 0, len(reg.bytes))
	for k := range reg.bytes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].strID != keys[j].strID {
			return keys[i].strID < keys[j].strID
		}
		return keys[i].idx < keys[j].idx
	})
	w.Int(len(keys))
	for _, k := range keys {
		w.Int(k.strID)
		w.Varint(k.idx)
		w.Varint(int64(reg.bytes[k]))
	}
	w.Int(reg.nextStrID)
	ids := make([]int, 0, len(reg.seedStrs))
	for id := range reg.seedStrs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	w.Int(len(ids))
	for _, id := range ids {
		w.Int(id)
		w.String(reg.seedStrs[id])
	}
}

func decodeRegistry(d *stateDecoder, reg *inputRegistry) error {
	r := d.r
	nints, err := r.Int()
	if err != nil {
		return err
	}
	if nints < 0 || nints > r.Len() {
		return fmt.Errorf("symexec: int-channel count %d out of range", nints)
	}
	for i := 0; i < nints; i++ {
		name, err := r.Sym()
		if err != nil {
			return err
		}
		v, err := r.Varint()
		if err != nil {
			return err
		}
		reg.ints[name] = solver.Var(v)
		reg.intOrder = append(reg.intOrder, name)
	}
	nstrs, err := r.Int()
	if err != nil {
		return err
	}
	if nstrs < 0 || nstrs > r.Len() {
		return fmt.Errorf("symexec: string-channel count %d out of range", nstrs)
	}
	for i := 0; i < nstrs; i++ {
		key, err := r.Sym()
		if err != nil {
			return err
		}
		s, err := d.symStr()
		if err != nil {
			return err
		}
		reg.strs[key] = s
		reg.strOrder = append(reg.strOrder, key)
	}
	nbytes, err := r.Int()
	if err != nil {
		return err
	}
	if nbytes < 0 || nbytes > r.Len() {
		return fmt.Errorf("symexec: byte-variable count %d out of range", nbytes)
	}
	for i := 0; i < nbytes; i++ {
		var k byteKey
		if k.strID, err = r.Int(); err != nil {
			return err
		}
		if k.idx, err = r.Varint(); err != nil {
			return err
		}
		v, err := r.Varint()
		if err != nil {
			return err
		}
		reg.bytes[k] = solver.Var(v)
	}
	if reg.nextStrID, err = r.Int(); err != nil {
		return err
	}
	nseed, err := r.Int()
	if err != nil {
		return err
	}
	if nseed < 0 || nseed > r.Len() {
		return fmt.Errorf("symexec: seed-string count %d out of range", nseed)
	}
	if nseed > 0 {
		reg.seedStrs = make(map[int]string, nseed)
	}
	for i := 0; i < nseed; i++ {
		id, err := r.Int()
		if err != nil {
			return err
		}
		val, err := r.String()
		if err != nil {
			return err
		}
		reg.seedStrs[id] = val
	}
	return nil
}

// encodeCounters writes the executor's deterministic effort counters (the
// fields of res) and the solver's logical query counters (those of cs),
// so a resumed run's final Result reports run-global totals rather than
// resumed-portion ones.
func (ex *Executor) encodeCounters(w *snapshot.Writer, res *Result, cs *solver.CachedSolver) {
	w.Int(ex.nextID)
	w.Int(ex.nextSeq)
	w.Int(res.Paths)
	w.Int(res.StatesCreated)
	w.Int(res.MaxLive)
	w.Varint(res.Steps)
	w.Int(res.Forks)
	w.Int(res.SummaryCalls)
	w.Int(res.SummaryPaths)
	w.Int(res.HavocCalls)
	w.Int(res.DepthExhausted)
	w.Int(res.Revivals)
	w.Int(cs.Queries.Checks)
	w.Int(cs.Queries.Sat)
	w.Int(cs.Queries.Unsat)
	w.Int(cs.Queries.Unknown)
	w.Int(cs.Hits)
	w.Int(cs.Misses)
	// Two retired slots, always zero: they held the solver cache's
	// fast-path counters, and keeping them keeps checkpoint bytes stable.
	w.Int(0)
	w.Int(0)
	w.Int(cs.Evictions)
	w.Int(len(res.Vulns))
	for _, v := range res.Vulns {
		EncodeVulnerability(w, v)
	}
}

// encodeSolverCache ships the exact-match cache so the resumed executor
// replays the captured run's hit/miss history (see solver.CacheEntry).
func encodeSolverCache(w *snapshot.Writer, cs *solver.CachedSolver) {
	entries := cs.ExportCache()
	w.Int(len(entries))
	for _, e := range entries {
		w.Uvarint(e.Digest.Sum)
		w.Int(e.Digest.N)
		w.Uvarint(e.BSig)
		w.Uvarint(e.Origin)
		snapshot.EncodeConstraints(w, e.Cons)
		w.Int(int(e.Res))
		snapshot.EncodeModel(w, e.Model)
	}
}

func decodeSolverCache(r *snapshot.Reader, cs *solver.CachedSolver) error {
	n, err := r.Int()
	if err != nil {
		return err
	}
	if n < 0 || n > r.Len() {
		return fmt.Errorf("symexec: cache entry count %d out of range", n)
	}
	entries := make([]solver.CacheEntry, n)
	for i := range entries {
		e := &entries[i]
		if e.Digest.Sum, err = r.Uvarint(); err != nil {
			return err
		}
		if e.Digest.N, err = r.Int(); err != nil {
			return err
		}
		if e.BSig, err = r.Uvarint(); err != nil {
			return err
		}
		if e.Origin, err = r.Uvarint(); err != nil {
			return err
		}
		if e.Cons, err = snapshot.DecodeConstraints(r); err != nil {
			return err
		}
		res, err := r.Int()
		if err != nil {
			return err
		}
		e.Res = solver.Result(res)
		if e.Model, err = snapshot.DecodeModel(r); err != nil {
			return err
		}
	}
	cs.ImportCache(entries)
	return nil
}

func (ex *Executor) decodeCounters(r *snapshot.Reader) error {
	ints := []*int{
		&ex.nextID, &ex.nextSeq,
		&ex.res.Paths, &ex.res.StatesCreated, &ex.res.MaxLive,
	}
	var err error
	for _, p := range ints {
		if *p, err = r.Int(); err != nil {
			return err
		}
	}
	if ex.res.Steps, err = r.Varint(); err != nil {
		return err
	}
	var retired [2]int // the zero slots encodeCounters keeps writing
	ints = []*int{
		&ex.res.Forks, &ex.res.SummaryCalls, &ex.res.SummaryPaths,
		&ex.res.HavocCalls, &ex.res.DepthExhausted, &ex.res.Revivals,
		&ex.Solver.Queries.Checks, &ex.Solver.Queries.Sat,
		&ex.Solver.Queries.Unsat, &ex.Solver.Queries.Unknown,
		&ex.Solver.Hits, &ex.Solver.Misses,
		&retired[0], &retired[1], &ex.Solver.Evictions,
	}
	for _, p := range ints {
		if *p, err = r.Int(); err != nil {
			return err
		}
	}
	nv, err := r.Int()
	if err != nil {
		return err
	}
	if nv < 0 || nv > r.Len() {
		return fmt.Errorf("symexec: vulnerability count %d out of range", nv)
	}
	for i := 0; i < nv; i++ {
		v, err := DecodeVulnerability(r)
		if err != nil {
			return err
		}
		ex.res.Vulns = append(ex.res.Vulns, v)
	}
	return decodeSolverCache(r, ex.Solver)
}

// encodeVisits writes the per-instruction visit counters sparsely (only
// allocated functions, only nonzero cells).
func encodeVisits(w *snapshot.Writer, visits [][]int64) {
	nz := 0
	for _, v := range visits {
		if v != nil {
			nz++
		}
	}
	w.Int(nz)
	for i, v := range visits {
		if v == nil {
			continue
		}
		w.Int(i)
		cnt := 0
		for _, c := range v {
			if c != 0 {
				cnt++
			}
		}
		w.Int(cnt)
		for pc, c := range v {
			if c != 0 {
				w.Int(pc)
				w.Varint(c)
			}
		}
	}
}

func (ex *Executor) decodeVisits(r *snapshot.Reader) error {
	nz, err := r.Int()
	if err != nil {
		return err
	}
	if nz < 0 || nz > len(ex.visits) {
		return fmt.Errorf("symexec: visit function count %d out of range", nz)
	}
	for i := 0; i < nz; i++ {
		fi, err := r.Int()
		if err != nil {
			return err
		}
		if fi < 0 || fi >= len(ex.visits) {
			return fmt.Errorf("symexec: visit function index %d out of range", fi)
		}
		v := make([]int64, len(ex.Prog.Funcs[fi].Code))
		cnt, err := r.Int()
		if err != nil {
			return err
		}
		if cnt < 0 || cnt > len(v) {
			return fmt.Errorf("symexec: visit cell count %d out of range", cnt)
		}
		for j := 0; j < cnt; j++ {
			pc, err := r.Int()
			if err != nil {
				return err
			}
			if pc < 0 || pc >= len(v) {
				return fmt.Errorf("symexec: visit pc %d out of range", pc)
			}
			if v[pc], err = r.Varint(); err != nil {
				return err
			}
		}
		ex.visits[fi] = v
	}
	return nil
}

// ResumeExecutor reconstructs an executor from a checkpoint blob. The blob
// is self-contained (program, spec, variable table, registry, states);
// opts supplies the run configuration, which must stay inside the same
// one-slot pure-mode envelope capture requires. RunContext on the
// returned executor continues the search without re-running initialization.
//
// Budget semantics: the restored Steps/MaxStates counters carry over, so
// opts.MaxSteps and opts.MaxStates are run-global budgets — resuming with
// the captured run's limits stops immediately; raise them to continue.
func ResumeExecutor(blob []byte, opts Options) (*Executor, error) {
	if opts.Workers > 0 || opts.Hook != nil || opts.Calls != nil {
		return nil, fmt.Errorf("symexec: resume requires the default pure engine (no workers, hook, or call policy)")
	}
	r := snapshot.NewReader(blob)
	ver, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if ver != checkpointVersion {
		return nil, fmt.Errorf("symexec: checkpoint version %d not supported (want %d)", ver, checkpointVersion)
	}
	prog, err := snapshot.DecodeProgram(r)
	if err != nil {
		return nil, err
	}
	spec, err := DecodeSpec(r)
	if err != nil {
		return nil, err
	}
	table, err := decodeTable(r)
	if err != nil {
		return nil, err
	}
	ex := newExecutor(prog, table, spec, opts)
	ex.resumed = true
	d := newStateDecoder(r)
	if err := decodeRegistry(d, ex.inputs); err != nil {
		return nil, err
	}
	if err := ex.decodeCounters(r); err != nil {
		return nil, err
	}
	if err := ex.decodeVisits(r); err != nil {
		return nil, err
	}
	nactive, err := r.Int()
	if err != nil {
		return nil, err
	}
	if nactive < 0 || nactive > r.Len() {
		return nil, fmt.Errorf("symexec: active state count %d out of range", nactive)
	}
	for i := 0; i < nactive; i++ {
		st, err := d.state(prog.Funcs)
		if err != nil {
			return nil, err
		}
		ex.sched.Add(st)
	}
	nsusp, err := r.Int()
	if err != nil {
		return nil, err
	}
	if nsusp < 0 || nsusp > r.Len() {
		return nil, fmt.Errorf("symexec: suspended state count %d out of range", nsusp)
	}
	for i := 0; i < nsusp; i++ {
		st, err := d.state(prog.Funcs)
		if err != nil {
			return nil, err
		}
		ex.suspended = append(ex.suspended, st)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("symexec: %d trailing bytes after checkpoint", r.Len())
	}
	return ex, nil
}

// EncodeFrontierShards partitions the active frontier round-robin into n
// checkpoint blobs, each carrying the full program/spec/table/registry but
// zeroed effort counters and only its own states. Running every shard to
// exhaustion and summing their Results (plus the pre-shard base Result)
// reproduces the undivided run's totals, because in pure mode states
// explore independently — the scheduler order only decides discovery
// sequence, not the path set.
//
// Shards are rejected while states sit in the suspended pool (the revival
// rule is a global-frontier decision that sharding would distort).
func (ex *Executor) EncodeFrontierShards(n int) ([][]byte, error) {
	if err := ex.checkpointable(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("symexec: shard count %d must be positive", n)
	}
	if len(ex.suspended) != 0 {
		return nil, fmt.Errorf("symexec: cannot shard with %d suspended states", len(ex.suspended))
	}
	active := ex.frontier()
	blobs := make([][]byte, n)
	for s := range blobs {
		var mine []*State
		for i, st := range active {
			if i%n == s {
				mine = append(mine, st)
			}
		}
		// Zeroed effort counters, no vulnerabilities and no visit counts:
		// summing the shards' Results onto the pre-shard base counts every
		// step once. nextID/nextSeq stay, keeping per-shard tie-breaking
		// deterministic.
		blob, err := ex.encodeCheckpoint(&Result{}, &solver.CachedSolver{}, nil, mine, nil)
		if err != nil {
			return nil, err
		}
		blobs[s] = blob
	}
	return blobs, nil
}

// WriteCheckpointFile writes blob to path as a single CRC-framed .ssnap
// file, atomically.
func WriteCheckpointFile(path string, blob []byte) error {
	return durable.WriteFile(path, func(w io.Writer) error {
		return snapshot.WriteFrame(w, snapshot.FrameCheckpoint, blob)
	})
}

// ReadCheckpointFile reads and validates a .ssnap file, returning the
// checkpoint payload.
func ReadCheckpointFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	typ, payload, err := snapshot.ReadFrame(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if typ != snapshot.FrameCheckpoint {
		return nil, fmt.Errorf("symexec: %s: unexpected frame type %#x", path, typ)
	}
	return payload, nil
}

// Pending reports the number of states waiting in the scheduler's
// frontier — for a freshly resumed checkpoint, the frontier it captured.
func (ex *Executor) Pending() int { return ex.sched.Len() }
