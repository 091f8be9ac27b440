package chain

import (
	"fmt"
	"sort"
	"sync"
)

// VersionedValue is a world-state entry with the version (commit sequence)
// of its last write, as used by MVCC validation in Fabric-style chains.
type VersionedValue struct {
	Value   []byte
	Version uint64
}

// StateBackend is the storage engine behind a State. The in-RAM map is the
// default; internal/store/pagedstate provides a disk-backed paged engine so
// runs with 10M+ accounts keep a bounded heap. Backends own their
// concurrency control: every method must be safe for concurrent callers.
//
// Contract (shared with the map backend, pinned by invariant tests):
//   - Get returns the value and version of the last Set; ok is false for a
//     key never written or deleted since.
//   - Set stores an independent copy semantics-wise: callers may not mutate
//     val after the call, and backends may not hand out aliases that a later
//     Set mutates in place.
//   - Keys returns every live key in ascending order.
type StateBackend interface {
	Get(key string) (val []byte, version uint64, ok bool)
	Set(key string, val []byte, version uint64)
	Delete(key string)
	Len() int
	Keys() []string
}

// StateFactory constructs the world state a chain (or one of its shards)
// commits into. A nil factory means the in-RAM map backend. Factories are
// called once per state instance, so a sharded chain gets independent
// stores per shard.
type StateFactory func() *State

// NewStateFrom invokes the factory, or NewState when it is nil — the
// one-liner every chain constructor uses to honour its Config.State seam.
func NewStateFrom(f StateFactory) *State {
	if f == nil {
		return NewState()
	}
	return f()
}

// State is a versioned key-value world state. The zero value is empty and
// ready to use. State is safe for concurrent readers and writers; the
// simulated chains additionally serialise commits through their event loop.
//
// With no backend attached the State is the original mutex-guarded in-RAM
// map (the hot path pays nothing for the seam); NewStateOn mounts any
// StateBackend — the paged disk store — behind the identical interface.
type State struct {
	mu   sync.RWMutex
	data map[string]VersionedValue
	// backend, when non-nil, replaces the inline map entirely. Backends do
	// their own locking, so delegated calls skip State.mu.
	backend StateBackend
}

// NewState returns an empty world state on the in-RAM map backend.
func NewState() *State {
	return &State{data: make(map[string]VersionedValue)}
}

// NewStateOn returns a world state served by the given backend. A nil
// backend is equivalent to NewState.
func NewStateOn(b StateBackend) *State {
	if b == nil {
		return NewState()
	}
	return &State{backend: b}
}

// Backend returns the mounted storage engine, or nil for the in-RAM map.
// Callers use it to reach engine-specific surface (stats, snapshots, Close)
// behind the State seam.
func (s *State) Backend() StateBackend { return s.backend }

// Get returns the value and version for key. ok is false when the key has
// never been written.
func (s *State) Get(key string) (val []byte, version uint64, ok bool) {
	if s.backend != nil {
		return s.backend.Get(key)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	vv, ok := s.data[key]
	if !ok {
		return nil, 0, false
	}
	return vv.Value, vv.Version, true
}

// Set writes key at the given version.
func (s *State) Set(key string, val []byte, version uint64) {
	if s.backend != nil {
		s.backend.Set(key, val, version)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.data == nil {
		s.data = make(map[string]VersionedValue)
	}
	s.data[key] = VersionedValue{Value: val, Version: version}
}

// Delete removes key.
func (s *State) Delete(key string) {
	if s.backend != nil {
		s.backend.Delete(key)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.data, key)
}

// Len reports the number of live keys.
func (s *State) Len() int {
	if s.backend != nil {
		return s.backend.Len()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// Keys returns all keys in sorted order (used by audits and tests).
func (s *State) Keys() []string {
	if s.backend != nil {
		return s.backend.Keys()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ReadEntry records a key read during simulated execution together with the
// version observed, for MVCC validation.
type ReadEntry struct {
	Key     string
	Version uint64
	// Exists distinguishes a read of an absent key (version 0) from a read
	// of a key genuinely written at version 0.
	Exists bool
}

// WriteEntry records a key written during simulated execution.
type WriteEntry struct {
	Key   string
	Value []byte
}

// RWSet is the read-write set produced by endorsing (executing) a
// transaction against a state snapshot.
type RWSet struct {
	Reads  []ReadEntry
	Writes []WriteEntry
}

// Keys returns the union of read and written keys, deduplicated and sorted.
func (rw *RWSet) Keys() []string {
	set := make(map[string]struct{}, len(rw.Reads)+len(rw.Writes))
	for _, r := range rw.Reads {
		set[r.Key] = struct{}{}
	}
	for _, w := range rw.Writes {
		set[w.Key] = struct{}{}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Validate checks the read set against the current state: every read must
// still observe the version it saw at execution time. It returns nil when
// the set is still valid, or a descriptive conflict error.
func (rw *RWSet) Validate(s *State) error {
	for _, r := range rw.Reads {
		_, ver, ok := s.Get(r.Key)
		if ok != r.Exists || (ok && ver != r.Version) {
			return fmt.Errorf("chain: mvcc conflict on %q: read version %d (exists=%v), now %d (exists=%v)",
				r.Key, r.Version, r.Exists, ver, ok)
		}
	}
	return nil
}

// Apply installs the write set at the given commit version.
func (rw *RWSet) Apply(s *State, version uint64) {
	for _, w := range rw.Writes {
		if w.Value == nil {
			s.Delete(w.Key)
			continue
		}
		s.Set(w.Key, w.Value, version)
	}
}

// Executor runs a transaction against a state snapshot and records its
// read-write set. It implements the TxContext seen by contracts.
type Executor struct {
	state   *State
	rwset   RWSet
	pending map[string][]byte
	// writeIdx maps a staged key to its slot in rwset.Writes so repeated
	// writes update in place in O(1); the slice scan it replaces made wide
	// write sets (IOHeavy batches, Analytics aggregates) quadratic.
	writeIdx map[string]int
}

// NewExecutor builds an executor over the given state.
func NewExecutor(state *State) *Executor {
	return &Executor{state: state, pending: make(map[string][]byte)}
}

// Reset points the executor at state and forgets the previous
// transaction: the RW-set slices are truncated and the maps cleared, so a
// block executes every transaction on one executor. RW sets returned
// earlier are invalidated; callers that retain one until validation (Fabric
// endorsement) must use a fresh executor per transaction instead. Written
// values are never reused, so those already applied to a State stay intact.
func (e *Executor) Reset(state *State) {
	e.state = state
	e.rwset.Reads = e.rwset.Reads[:0]
	e.rwset.Writes = e.rwset.Writes[:0]
	clear(e.pending)
	clear(e.writeIdx)
}

// Get reads key, preferring this transaction's own uncommitted writes
// (read-your-writes), and records the read in the RW set otherwise.
func (e *Executor) Get(key string) ([]byte, bool) {
	if v, ok := e.pending[key]; ok {
		return v, v != nil
	}
	val, ver, ok := e.state.Get(key)
	e.rwset.Reads = append(e.rwset.Reads, ReadEntry{Key: key, Version: ver, Exists: ok})
	return val, ok
}

// Put stages a write to key.
func (e *Executor) Put(key string, val []byte) {
	if val == nil {
		val = []byte{}
	}
	e.pending[key] = val
	e.stageWrite(key, val)
}

// Del stages a deletion of key.
func (e *Executor) Del(key string) {
	e.pending[key] = nil
	e.stageWrite(key, nil)
}

func (e *Executor) stageWrite(key string, val []byte) {
	if i, ok := e.writeIdx[key]; ok {
		e.rwset.Writes[i].Value = val
		return
	}
	if e.writeIdx == nil {
		e.writeIdx = make(map[string]int)
	}
	e.writeIdx[key] = len(e.rwset.Writes)
	e.rwset.Writes = append(e.rwset.Writes, WriteEntry{Key: key, Value: val})
}

// RWSet returns the recorded read-write set.
func (e *Executor) RWSet() *RWSet { return &e.rwset }
