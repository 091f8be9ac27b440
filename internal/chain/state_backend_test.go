package chain

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// mapBackend is a minimal StateBackend used to prove the State seam
// delegates every method (and only then).
type mapBackend struct {
	data  map[string]VersionedValue
	calls map[string]int
}

func newMapBackend() *mapBackend {
	return &mapBackend{data: make(map[string]VersionedValue), calls: make(map[string]int)}
}

func (b *mapBackend) Get(key string) ([]byte, uint64, bool) {
	b.calls["get"]++
	vv, ok := b.data[key]
	return vv.Value, vv.Version, ok
}

func (b *mapBackend) Set(key string, val []byte, version uint64) {
	b.calls["set"]++
	b.data[key] = VersionedValue{Value: val, Version: version}
}

func (b *mapBackend) Delete(key string) {
	b.calls["delete"]++
	delete(b.data, key)
}

func (b *mapBackend) Len() int {
	b.calls["len"]++
	return len(b.data)
}

func (b *mapBackend) Keys() []string {
	b.calls["keys"]++
	keys := make([]string, 0, len(b.data))
	for k := range b.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestStateDelegatesToBackend(t *testing.T) {
	b := newMapBackend()
	s := NewStateOn(b)
	if s.Backend() != StateBackend(b) {
		t.Fatalf("Backend() = %v, want the mounted backend", s.Backend())
	}

	s.Set("a", []byte("1"), 7)
	s.Set("b", []byte("2"), 8)
	if val, ver, ok := s.Get("a"); !ok || string(val) != "1" || ver != 7 {
		t.Fatalf("Get(a) = %q v%d ok=%v", val, ver, ok)
	}
	if _, _, ok := s.Get("missing"); ok {
		t.Fatal("Get(missing) reported ok")
	}
	if n := s.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
	if keys := s.Keys(); len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("Keys = %v", keys)
	}
	s.Delete("a")
	if n := s.Len(); n != 1 {
		t.Fatalf("Len after delete = %d, want 1", n)
	}
	for _, m := range []string{"get", "set", "delete", "len", "keys"} {
		if b.calls[m] == 0 {
			t.Errorf("backend method %s never called", m)
		}
	}
}

func TestNewStateOnNilIsMapState(t *testing.T) {
	s := NewStateOn(nil)
	if s.Backend() != nil {
		t.Fatalf("nil backend should mount the in-RAM map, got %v", s.Backend())
	}
	s.Set("k", []byte("v"), 1)
	if val, _, ok := s.Get("k"); !ok || string(val) != "v" {
		t.Fatalf("Get(k) = %q ok=%v", val, ok)
	}
}

// TestStageWriteWideSet pins the rewrite-in-place semantics of stageWrite
// after the O(writes²) scan was replaced with the key→index map: a wide
// write set stays one entry per key, with the last value winning.
func TestStageWriteWideSet(t *testing.T) {
	const keys = 5000
	e := NewExecutor(NewState())
	for i := 0; i < keys; i++ {
		e.Put(fmt.Sprintf("k%04d", i), []byte("first"))
	}
	for i := 0; i < keys; i++ {
		e.Put(fmt.Sprintf("k%04d", i), []byte("second"))
	}
	rw := e.RWSet()
	if len(rw.Writes) != keys {
		t.Fatalf("writes = %d entries, want %d (one per key)", len(rw.Writes), keys)
	}
	for i, w := range rw.Writes {
		if string(w.Value) != "second" {
			t.Fatalf("write %d (%s) = %q, want rewrite to win", i, w.Key, w.Value)
		}
	}
	// Deletions overwrite in place too.
	e.Del("k0000")
	if len(e.RWSet().Writes) != keys {
		t.Fatalf("delete of staged key appended instead of updating: %d entries", len(e.RWSet().Writes))
	}
	if e.RWSet().Writes[0].Value != nil {
		t.Fatalf("delete did not stage a nil value: %q", e.RWSet().Writes[0].Value)
	}
}

// TestStageWriteRestageAllocs guards the hot path: re-staging an
// already-staged key must not allocate at all.
func TestStageWriteRestageAllocs(t *testing.T) {
	e := NewExecutor(NewState())
	val := []byte("v")
	e.Put("hot", val)
	allocs := testing.AllocsPerRun(1000, func() {
		e.Put("hot", val)
	})
	if allocs > 0 {
		t.Fatalf("re-staging an existing key allocates %.1f times per op, want 0", allocs)
	}
}

// BenchmarkStageWriteWide is the regression bench for the quadratic scan:
// staging N distinct keys is ~O(N) now, so per-op time must stay flat as
// the write set widens.
func BenchmarkStageWriteWide(b *testing.B) {
	for _, width := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("keys=%d", width), func(b *testing.B) {
			keys := make([]string, width)
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%06d", i)
			}
			val := []byte("value")
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				e := NewExecutor(NewState())
				for _, k := range keys {
					e.Put(k, val)
				}
			}
			b.ReportMetric(float64(width), "keys/op")
		})
	}
}

// After Reset an executor carries nothing of the previous transaction: no
// pending write answers a read, and neither the read set nor the write
// index leaks into the next RW set.
func TestExecutorResetForgetsPreviousTransaction(t *testing.T) {
	s := NewState()
	s.Set("a", []byte("1"), 1)
	ex := NewExecutor(s)
	ex.Get("a")
	ex.Put("a", []byte("2"))
	ex.Put("b", []byte("3"))
	ex.Del("c")

	next := NewState()
	ex.Reset(next)
	if rw := ex.RWSet(); len(rw.Reads) != 0 || len(rw.Writes) != 0 {
		t.Fatalf("RW set survived Reset: %+v", rw)
	}
	if v, ok := ex.Get("a"); ok {
		t.Fatalf("pending write of the previous transaction answered a read: %q", v)
	}
	if _, ok := ex.Get("c"); ok {
		t.Fatal("pending delete of the previous transaction leaked")
	}
	if rw := ex.RWSet(); len(rw.Reads) != 2 || rw.Reads[0].Exists {
		t.Fatalf("reads after Reset should hit the new state: %+v", rw.Reads)
	}
	// A stale write index would update slot 1 of a one-entry write set.
	ex.Put("b", []byte("4"))
	ex.Put("d", []byte("5"))
	ex.Put("b", []byte("6"))
	want := []WriteEntry{{Key: "b", Value: []byte("6")}, {Key: "d", Value: []byte("5")}}
	if got := ex.RWSet().Writes; !reflect.DeepEqual(got, want) {
		t.Fatalf("writes after Reset = %+v, want %+v", got, want)
	}
}
