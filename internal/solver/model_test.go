package solver

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// modelKeys draws the Vars of one model. The kinds follow how VarTable
// hands out IDs: dense (one table; guided thttpd's largest Var is 1,087),
// sparse (a few bindings from a wide ID space, as in pure-mode runs that
// reach Var 5,602 with 3 to 8 bindings per model), lane-strided (the IDs
// of one lane of an epoch), and any int32, negative ones included, which
// only a decoder reading foreign bytes produces.
var modelKeys = map[string]func(*rand.Rand) Var{
	"dense":  func(r *rand.Rand) Var { return Var(r.Intn(1100)) },
	"sparse": func(r *rand.Rand) Var { return Var(r.Intn(6000)) },
	"lanes":  func(r *rand.Rand) Var { return Var(1024 + 3 + 8*r.Intn(400)) },
	"int32":  func(r *rand.Rand) Var { return Var(int32(r.Uint32())) },
}

// modelVersion is one published model with the map it must read as.
type modelVersion struct {
	m    *Model
	want map[Var]int64
}

// checkModel compares m with want through every read: Len, Get and Value
// for every bound variable and a few unbound ones, Range in ascending
// Var order, Equal and reflect.DeepEqual against a model built afresh
// (the layout is canonical).
func checkModel(t *testing.T, label string, m *Model, want map[Var]int64, probe []Var) {
	t.Helper()
	if m == nil {
		t.Fatalf("%s: nil model", label)
	}
	if m.Len() != len(want) {
		t.Fatalf("%s: Len = %d, want %d", label, m.Len(), len(want))
	}
	for v, x := range want {
		if got, ok := m.Get(v); !ok || got != x {
			t.Fatalf("%s: Get(%d) = %d, %v; want %d", label, v, got, ok, x)
		}
	}
	for _, v := range probe {
		x, bound := want[v]
		if got, ok := m.Get(v); ok != bound || got != x || m.Value(v) != x {
			t.Fatalf("%s: Get(%d) = %d, %v; want %d, %v", label, v, got, ok, x, bound)
		}
	}
	keys := make([]Var, 0, len(want))
	for v := range want {
		keys = append(keys, v)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	i := 0
	m.Range(func(v Var, x int64) bool {
		if i >= len(keys) || v != keys[i] || x != want[v] {
			t.Fatalf("%s: Range step %d gave %d:%d", label, i, v, x)
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("%s: Range visited %d bindings, want %d", label, i, len(keys))
	}
	fresh := ModelOf(want)
	if !m.Equal(fresh) || !fresh.Equal(m) {
		t.Fatalf("%s: Equal is false against a fresh build", label)
	}
	if !reflect.DeepEqual(m, fresh) {
		t.Fatalf("%s: layout differs from a fresh build of the same bindings", label)
	}
}

// TestModelMatchesMapOracle runs random set, delete and merge sequences,
// several edits per builder, against a map oracle, and checks every
// version after its edits and again at the end: a derived model must
// never disturb the models it shares nodes with.
func TestModelMatchesMapOracle(t *testing.T) {
	for kind, draw := range modelKeys {
		t.Run(kind, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(len(kind))))
			for seq := 0; seq < 8; seq++ {
				versions := []modelVersion{{m: new(Model), want: map[Var]int64{}}}
				size := 8 // about the sparse models' size
				if kind == "dense" {
					size = 600 // about guided thttpd's query models
				}
				for step := 0; step < 120; step++ {
					base := versions[r.Intn(len(versions))]
					if step%8 == 0 {
						base = versions[len(versions)-1]
					}
					b := base.m.Edit()
					want := make(map[Var]int64, len(base.want)+4)
					for v, x := range base.want {
						want[v] = x
					}
					var probe []Var
					for e := r.Intn(6); e >= 0; e-- {
						switch op := r.Intn(10); {
						case op < 5 || len(want) < size/2:
							v, x := draw(r), r.Int63n(2000)-1000
							if r.Intn(8) == 0 {
								x = math.MinInt64 + r.Int63n(3)
							}
							b.Set(v, x)
							want[v] = x
							probe = append(probe, v)
						case op < 8:
							v := draw(r)
							if r.Intn(2) == 0 {
								for k := range want {
									v = k
									break
								}
							}
							b.Delete(v)
							delete(want, v)
							probe = append(probe, v)
						default:
							o := versions[r.Intn(len(versions))]
							b.Merge(o.m)
							for v, x := range o.want {
								want[v] = x
							}
						}
					}
					m := b.Model()
					for i := 0; i < 4; i++ {
						probe = append(probe, draw(r))
					}
					checkModel(t, fmt.Sprintf("seq %d step %d", seq, step), m, want, probe)
					versions = append(versions, modelVersion{m: m, want: want})
				}
				for i, v := range versions {
					checkModel(t, fmt.Sprintf("seq %d version %d", seq, i), v.m, v.want, nil)
				}
			}
		})
	}
}

// TestModelNilIsNotEmpty pins the distinction callers rely on: a
// satisfiable check without variables returns the empty model, and "no
// model" is nil.
func TestModelNilIsNotEmpty(t *testing.T) {
	var none *Model
	empty := new(Model)
	if none.Len() != 0 || empty.Len() != 0 {
		t.Fatal("nil and empty models must both have no bindings")
	}
	if _, ok := none.Get(3); ok || none.Value(3) != 0 {
		t.Fatal("the nil model binds nothing")
	}
	if none.Equal(empty) || empty.Equal(none) || !none.Equal(nil) || !empty.Equal(new(Model)) {
		t.Fatal("nil must equal only nil, and empty only empty")
	}
	nb := none.Edit()
	if m := nb.Model(); m == nil || m.Len() != 0 {
		t.Fatalf("editing the nil model must build the empty model, got %v", m)
	}
	b := ModelOf(map[Var]int64{7: 1}).Edit()
	b.Delete(7)
	if m := b.Model(); m == nil || !reflect.DeepEqual(m, new(Model)) {
		t.Fatalf("deleting every binding must leave the empty model, got %v", m)
	}
	if res, m := New().Check(NewVarTable(), nil); res != Sat || m == nil || m.Len() != 0 {
		t.Fatalf("empty conjunction: %v %v, want sat with the empty model", res, m)
	}
}

// TestModelString renders like a map[Var]int64.
func TestModelString(t *testing.T) {
	m := ModelOf(map[Var]int64{-3: 1, 4: -2, 70: 5})
	if got, want := m.String(), fmt.Sprint(map[Var]int64{-3: 1, 4: -2, 70: 5}); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

// TestModelConcurrentDerive derives models from shared ones on several
// goroutines at once, as forked states, epoch slots and the shared cache
// do, and hands the results between goroutines. Under -race it fails if
// any edit writes a node another model shares.
func TestModelConcurrentDerive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	shared := make([]modelVersion, 6)
	for i := range shared {
		want := map[Var]int64{}
		for j := 0; j < 50+100*i; j++ {
			want[Var(r.Intn(1100))] = r.Int63n(100)
		}
		shared[i] = modelVersion{m: ModelOf(want), want: want}
	}
	const workers = 4
	out := make(chan modelVersion, workers*8)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				base := shared[r.Intn(len(shared))]
				b := base.m.Edit()
				want := make(map[Var]int64, len(base.want)+2)
				for v, x := range base.want {
					want[v] = x
				}
				for e := 0; e < 4; e++ {
					v := Var(r.Intn(1200))
					if r.Intn(3) == 0 {
						b.Delete(v)
						delete(want, v)
					} else {
						x := r.Int63n(100)
						b.Set(v, x)
						want[v] = x
					}
				}
				if o := shared[r.Intn(len(shared))]; r.Intn(4) == 0 {
					b.Merge(o.m)
					for v, x := range o.want {
						want[v] = x
					}
				}
				m := b.Model()
				if m.Len() != len(want) || !m.Equal(ModelOf(want)) {
					t.Errorf("worker %d: derived model differs from its oracle", seed)
					return
				}
				if i%25 == 0 {
					out <- modelVersion{m: m, want: want}
				}
			}
		}(int64(w))
	}
	go func() { wg.Wait(); close(out) }()
	for v := range out {
		// Read a model another goroutine built, and derive from it here.
		if v.m.Len() != len(v.want) {
			t.Fatal("a handed-over model lost bindings")
		}
		v.m.Range(func(k Var, x int64) bool {
			if v.want[k] != x {
				t.Fatalf("handed-over model reads %d:%d, want %d", k, x, v.want[k])
			}
			return true
		})
		_ = v.m.With(Var(5000), 1)
	}
	for i, s := range shared {
		checkModel(t, fmt.Sprintf("shared %d", i), s.m, s.want, nil)
	}
}

// BenchmarkModelGet prices one lookup in a model of guided thttpd's query
// model size.
func BenchmarkModelGet(b *testing.B) {
	m, keys := benchModel()
	b.ResetTimer()
	var sum int64
	for i := 0; i < b.N; i++ {
		sum += m.Value(keys[i%len(keys)])
	}
	_ = sum
}

// BenchmarkModelEdit prices deriving a model that changes four bindings
// of that size, as a full query's repair and merge do.
func BenchmarkModelEdit(b *testing.B) {
	m, keys := benchModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := m.Edit()
		for j := 0; j < 4; j++ {
			e.Set(keys[(i*4+j*131)%len(keys)], int64(i))
		}
		_ = e.Model()
	}
}

// benchModel returns a model of 581 bindings over Vars 0 to 1,099 and its
// keys.
func benchModel() (*Model, []Var) {
	r := rand.New(rand.NewSource(1))
	want := map[Var]int64{}
	var keys []Var
	for len(want) < 581 {
		v := Var(r.Intn(1100))
		if _, ok := want[v]; !ok {
			keys = append(keys, v)
		}
		want[v] = r.Int63n(1000)
	}
	return ModelOf(want), keys
}
