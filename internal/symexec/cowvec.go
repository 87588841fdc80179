package symexec

import "sync/atomic"

// cowVec is a vector stored in chunks of up to 32 elements that forked
// states share copy-on-write — buffer cells, the path condition and the
// trace all live in cowVecs. A state writes in place only into chunks
// stamped with its current owner token and copies anything else first —
// one chunk, plus the chunk index once per token. Forking drops both sides' tokens, which freezes every chunk
// in O(1), so a write after a fork copies at most the chunk it lands in.
// A chunk holds only the elements up to its highest written one, so a
// short vector or a short tail costs what it holds; chunks never written
// stay nil, and unwritten elements read as zero values, so a vector
// indexed by a sparse key (variable IDs) costs nothing for the gaps.
//
// Appends past a frozen chunk's last element need not copy it: the first
// state to claim the chunk's spare capacity (an atomic flag, since
// siblings may run on different workers) writes there in place through a
// new chunk header that aliases the array, and only later claimants copy.
// After a fork that both sides follow with an append — every branch —
// one of them copies nothing.
//
// The zero value is an empty vector. Copying the struct shares the
// storage; the copy must not be written under a token the original still
// writes under (State.fork drops both tokens).
type cowVec[T any] struct {
	chunks []*vecChunk[T]
	own    *ownerToken // token the chunk index was last copied under
	n      int         // one past the highest index ever set
}

// vecChunk is one window of a cowVec: data holds its elements up to the
// highest one written, never more than cellChunkSize. Elements below
// shared live in an array other chunk headers still read, so even the
// owner copies before overwriting them; claimed marks the array's spare
// capacity past len(data) as taken by some state's header.
type vecChunk[T any] struct {
	owner   *ownerToken
	data    []T
	shared  int
	claimed atomic.Bool
}

// len returns one past the highest index ever set.
func (v *cowVec[T]) len() int { return v.n }

// at returns element i (the zero value when never set).
func (v *cowVec[T]) at(i int) T {
	if ci := i >> cellChunkShift; ci < len(v.chunks) {
		if ch := v.chunks[ci]; ch != nil && i&cellChunkMask < len(ch.data) {
			return ch.data[i&cellChunkMask]
		}
	}
	var zero T
	return zero
}

// ref returns element i for writing by the holder of tok, privatizing the
// chunk index and the chunk that holds i first when tok does not own them.
func (v *cowVec[T]) ref(tok *ownerToken, i int) *T {
	ci, k := i>>cellChunkShift, i&cellChunkMask
	if v.own != tok {
		chunks := make([]*vecChunk[T], max(len(v.chunks), ci+1), max(len(v.chunks), ci+1)+1)
		copy(chunks, v.chunks)
		v.chunks, v.own = chunks, tok
	}
	for ci >= len(v.chunks) {
		v.chunks = append(v.chunks, nil)
	}
	ch := v.chunks[ci]
	switch {
	case ch == nil:
		ch = &vecChunk[T]{owner: tok, data: copyTo[T](nil, k, 1)}
		v.chunks[ci] = ch
	case ch.owner == tok && k >= ch.shared && k < cap(ch.data):
		ch.data = ch.data[:max(len(ch.data), k+1)]
	case ch.owner == tok && k >= ch.shared:
		ch.data, ch.shared = copyTo(ch.data, k, k+1), 0 // grow by doubling
	case ch.owner == tok:
		ch.data, ch.shared = copyTo(ch.data, k, 1), 0
	case len(ch.data) <= k && k < cap(ch.data) && ch.claimed.CompareAndSwap(false, true):
		ch = &vecChunk[T]{owner: tok, data: ch.data[:k+1], shared: len(ch.data)}
		v.chunks[ci] = ch
	default:
		ch = &vecChunk[T]{owner: tok, data: copyTo(ch.data, k, 1)}
		v.chunks[ci] = ch
	}
	if i >= v.n {
		v.n = i + 1
	}
	return &ch.data[k]
}

// copyTo returns a fresh copy of data covering index k, with room for
// spare more elements up to a whole chunk.
func copyTo[T any](data []T, k, spare int) []T {
	n := max(len(data), k+1)
	out := make([]T, n, min(n+spare, cellChunkSize))
	copy(out, data)
	return out
}

// set writes element i under tok.
func (v *cowVec[T]) set(tok *ownerToken, i int, x T) { *v.ref(tok, i) = x }

// push appends x under tok.
func (v *cowVec[T]) push(tok *ownerToken, x T) { v.set(tok, v.n, x) }

// slice returns a fresh copy of elements [0, len).
func (v *cowVec[T]) slice() []T {
	out := make([]T, v.n)
	for ci, ch := range v.chunks {
		if ch != nil {
			copy(out[ci<<cellChunkShift:], ch.data)
		}
	}
	return out
}
