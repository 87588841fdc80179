package solver

// Incremental, order-insensitive digests of constraint conjunctions.
//
// The symbolic executor's path condition is append-only (with an occasional
// in-place replacement when a single-variable bound is compacted), so the
// cache key for "pc ∧ extras" can be maintained in O(1) per added
// constraint instead of re-sorting and re-stringifying the whole
// conjunction on every query, which is what the previous hashConstraints
// did. The digest combines per-constraint hashes with modular addition, so
// it is insensitive to constraint order, supports removal (needed by bound
// compaction), and two digests of the same multiset are always equal.
//
// A digest is only a probabilistic key: cache layers that use it must
// verify the stored conjunction on a hit (see sameConjunction) so an FNV-64
// collision can never return a wrong verdict.

// Digest is an order-insensitive fingerprint of a constraint multiset.
// The zero value is the digest of the empty conjunction. Digests are
// comparable and usable as map keys.
type Digest struct {
	// Sum is the mod-2^64 sum of the per-constraint hashes.
	Sum uint64
	// N is the number of constraints digested (so conjunctions whose
	// hashes happen to sum equally but differ in length never collide).
	N int
}

// FNV-64a parameters (hash/fnv is not used directly: feeding the hash
// word-by-word through a local function avoids the []byte round trip and
// its allocations on the hot path).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvWord folds the 8 bytes of v (little-endian) into an FNV-64a state.
func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// mix64 finalizes a hash with SplitMix64's avalanche rounds. Raw FNV-64a
// must not be combined additively: a low-bit difference in one input word
// (say Var 1 vs Var 3, everything else equal) propagates through FNV's
// xor-multiply chain as an additive constant that does not depend on the
// prefix, so conjunctions pairing the same constraint shapes over
// different variables — exactly what per-character string constraints
// produce — would sum to colliding digests in droves. The avalanche makes
// each per-constraint hash's contribution to the sum non-affine in its
// input.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// HashConstraint returns a structural hash of c (FNV-64a over its words,
// finalized by mix64 so hashes are safe to combine additively).
// Constraints are canonical (terms sorted by variable, no zero
// coefficients), so structurally equal constraints always hash equally.
func HashConstraint(c Constraint) uint64 {
	h := fnvWord(uint64(fnvOffset64), uint64(c.Op))
	h = fnvWord(h, uint64(c.E.Const))
	for _, tm := range c.E.Terms {
		h = fnvWord(h, uint64(tm.Var))
		h = fnvWord(h, uint64(tm.Coeff))
	}
	return mix64(h)
}

// Add returns the digest extended by a constraint with hash h.
func (d Digest) Add(h uint64) Digest { return Digest{Sum: d.Sum + h, N: d.N + 1} }

// Remove returns the digest with a constraint of hash h removed. The caller
// must only remove hashes previously added.
func (d Digest) Remove(h uint64) Digest { return Digest{Sum: d.Sum - h, N: d.N - 1} }

// DigestOf computes the digest of a conjunction from scratch.
func DigestOf(cons []Constraint) Digest {
	var sum uint64
	for _, c := range cons {
		sum += HashConstraint(c)
	}
	return Digest{Sum: sum, N: len(cons)}
}

// constraintEq reports structural equality of two canonical constraints.
func constraintEq(a, b Constraint) bool {
	if a.Op != b.Op || a.E.Const != b.E.Const || len(a.E.Terms) != len(b.E.Terms) {
		return false
	}
	for i, tm := range a.E.Terms {
		if tm != b.E.Terms[i] {
			return false
		}
	}
	return true
}

// sameConjunction reports whether a and b are equal as constraint
// multisets. The common case — the same conjunction presented in the same
// order — is O(n); a permuted match falls back to quadratic matching, which
// is fine because it only runs on digest-equal conjunctions.
func sameConjunction(a, b []Constraint) bool {
	if len(a) != len(b) {
		return false
	}
	ordered := true
	for i := range a {
		if !constraintEq(a[i], b[i]) {
			ordered = false
			break
		}
	}
	if ordered {
		return true
	}
	used := make([]bool, len(b))
outer:
	for i := range a {
		for j := range b {
			if !used[j] && constraintEq(a[i], b[j]) {
				used[j] = true
				continue outer
			}
		}
		return false
	}
	return true
}

// boundsSig hashes the intrinsic bounds of every variable the conjunction
// mentions. The solver's verdict depends on those bounds (a byte is
// 0..255, a string length is ≥ 0), and they are fixed per VarTable at
// variable creation — but different executors build different tables, so a
// cache shared across executors must refuse a hit whose variables carry
// different intrinsic bounds even when the constraints are structurally
// identical.
//
// Like Digest, the signature sums per-constraint hashes, so it is
// insensitive to constraint order: the digest and sameConjunction both
// treat permuted conjunctions as equal, and an order-sensitive signature
// would turn those permuted re-queries — which symbolic execution produces
// constantly, states accumulating the same constraints along different
// branch orders — into spurious misses. (Term order within a constraint is
// canonical, so chaining inside one constraint is deterministic.)
func boundsSig(t *VarTable, cons []Constraint) uint64 {
	var sig uint64
	for _, c := range cons {
		h := uint64(fnvOffset64)
		for _, tm := range c.E.Terms {
			info := t.Info(tm.Var)
			h = fnvWord(h, uint64(tm.Var))
			var flags uint64
			if info.HasLo {
				flags |= 1
				h = fnvWord(h, uint64(info.Lo))
			}
			if info.HasHi {
				flags |= 2
				h = fnvWord(h, uint64(info.Hi))
			}
			h = fnvWord(h, flags)
		}
		sig += mix64(h)
	}
	return sig
}
