// Package pagedstate is a disk-backed, paged key-value state store
// implementing the chain.StateBackend contract, so every simulated chain
// can run 10M+ account populations with a bounded heap. It is the storage
// layer BLOCKBENCH's IOHeavy/Analytics macro workloads measure.
//
// Layout: world state lives in fixed-size slotted pages (page.go) reached
// through a hash directory of bucket → overflow-chain heads. A clock page
// cache with a configurable byte budget keeps the hot working set resident
// and recycles evicted frames' buffers, so steady-state operation allocates
// almost nothing. Every mutation is logged to a group-commit write-ahead
// log before it touches a page, and writing a dirty page back flushes the
// pending log batch first when the page's LSN (the log end after its last
// change) is not yet durable, so no page image ever reaches disk ahead of
// the records that produced it; replay at open is idempotent, so any crash-time
// mix of flushed and unflushed pages converges to the logged state, and the
// key count and Bloom filters are rebuilt from the surviving pages after
// replay. Once the log outgrows CheckpointWALBytes the store checkpoints
// automatically, so WAL growth stays bounded across arbitrarily long runs.
// A stack of Bloom filters (internal/bloom) fronts the directory and
// short-circuits reads of never-written keys — the SmallBank/YCSB read-miss
// path — without any page access.
//
// Durability scope: the store targets deterministic simulation runs, not a
// production ledger. Writes are durable at checkpoint granularity plus
// whatever the OS has accepted of the WAL (no fsync on the group-commit
// path), and a torn *page* write — unlike a torn WAL tail, which replay
// handles — is detected at open but not repaired.
//
// The chain.StateBackend interface has no error returns, so unrecoverable
// I/O failures on the hot path panic with a descriptive pagedstate error;
// a full disk is fatal to a benchmark run anyway.
package pagedstate

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"hammer/internal/bloom"
)

// Config parameterises a store.
type Config struct {
	// Dir is the directory holding pages.db, wal.log and meta.bin. It is
	// created if absent. Required.
	Dir string
	// PageSize is the fixed page size in bytes, 4096–16384 (default 8192).
	PageSize int
	// CacheBytes budgets the resident page cache (default 64 MiB). The
	// store's heap ceiling is CacheBytes plus the directory and Bloom
	// filters (a few bytes per key).
	CacheBytes int
	// ExpectedKeys sizes the hash directory and the first Bloom filter
	// (default 1M). Under-estimates degrade gracefully: chains grow longer
	// and further filters stack up.
	ExpectedKeys int
	// WALFlushBytes is the group-commit threshold (default 64 KiB).
	WALFlushBytes int
	// CheckpointWALBytes triggers an automatic checkpoint once the durable
	// log plus the pending batch crosses this size, bounding WAL growth
	// during long runs (default 64 MiB; negative disables).
	CheckpointWALBytes int
	// DisableBloom turns the negative-read filter off (ablation).
	DisableBloom bool
}

func (c *Config) fillDefaults() error {
	if c.Dir == "" {
		return fmt.Errorf("pagedstate: Config.Dir is required")
	}
	if c.PageSize == 0 {
		c.PageSize = 8192
	}
	if c.PageSize < 4096 || c.PageSize > 16384 {
		return fmt.Errorf("pagedstate: PageSize %d out of [4096,16384]", c.PageSize)
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.ExpectedKeys <= 0 {
		c.ExpectedKeys = 1 << 20
	}
	if c.CheckpointWALBytes == 0 {
		c.CheckpointWALBytes = 64 << 20
	}
	return nil
}

// Stats is a point-in-time view of the store's counters.
type Stats struct {
	Gets, Sets, Deletes int64
	// CacheHits/CacheMisses count page-cache lookups; BloomNegatives are
	// reads answered "absent" by the filter without any page access.
	CacheHits, CacheMisses, BloomNegatives int64
	// Evictions counts dirty-or-clean frame recycles; Compactions counts
	// in-page garbage collections.
	Evictions, Compactions int64
	// PagesAllocated is the page-file length in pages; ResidentPages the
	// frames currently cached; CacheBudgetBytes the configured ceiling.
	PagesAllocated, ResidentPages int
	CacheBudgetBytes              int
	// WALBytes is the durable log length; WALFlushes the group commits;
	// Checkpoints the page/meta/log reconciliations (explicit or automatic).
	WALBytes    int64
	WALFlushes  int64
	Checkpoints int64
	// LiveKeys mirrors Len().
	LiveKeys int
}

// HitRate is CacheHits / (CacheHits+CacheMisses), 0 when cold.
func (s Stats) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Store is the paged state store. It satisfies chain.StateBackend; all
// methods are safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	cfg      Config
	dir      []uint32 // bucket → head page, nilPage when empty
	cache    *pageCache
	wal      *wal
	pageFile *os.File
	nextPage uint32
	count    int
	scratch  []byte // compaction buffer, one page
	// blooms is the scalable negative-read filter: adds go to the newest
	// filter, lookups consult newest→oldest. Deletes leave the filters
	// untouched (stale positives only cost a page probe).
	blooms   []*bloom.Filter
	bloomCap int
	closed   bool

	gets, sets, deletes, bloomNeg int64
	compactions, checkpoints      int64
}

const (
	metaMagic         = 0x4850534d // "HPSM"
	metaFormatVersion = 1
	// bloomFPRate is the per-filter false-positive target.
	bloomFPRate = 0.01
)

// bucketsFor sizes the directory: ~128 keys per bucket keeps the average
// overflow chain at one page, rounded up to a power of two.
func bucketsFor(expectedKeys int) int {
	n := 256
	for n*128 < expectedKeys && n < 1<<26 {
		n <<= 1
	}
	return n
}

// Open creates or reopens the store in cfg.Dir. Reopening replays any WAL
// tail left by a crash (stopping cleanly at a torn record), rebuilds the
// key count and Bloom filters from the surviving pages, and then
// checkpoints, so an opened store always starts from a clean log.
func Open(cfg Config) (*Store, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("pagedstate: mkdir: %w", err)
	}
	pageFile, err := os.OpenFile(filepath.Join(cfg.Dir, "pages.db"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagedstate: open pages: %w", err)
	}
	s := &Store{
		cfg:      cfg,
		pageFile: pageFile,
		cache:    newPageCache(pageFile, cfg.PageSize, cfg.CacheBytes),
		scratch:  make([]byte, cfg.PageSize),
	}
	if err := s.loadMeta(); err != nil {
		pageFile.Close()
		return nil, err
	}
	if s.dir == nil { // fresh store
		s.dir = make([]uint32, bucketsFor(cfg.ExpectedKeys))
		for i := range s.dir {
			s.dir[i] = nilPage
		}
		s.resetBloom(cfg.ExpectedKeys)
	}
	s.wal, err = openWAL(filepath.Join(cfg.Dir, "wal.log"), cfg.WALFlushBytes)
	if err != nil {
		pageFile.Close()
		return nil, err
	}
	// No page image may reach disk ahead of the log records that produced
	// it: a write-back first flushes the WAL through the page's last record.
	s.cache.wal = s.wal
	walInfo, err := s.wal.f.Stat()
	if err != nil {
		s.closeFiles()
		return nil, fmt.Errorf("pagedstate: stat wal: %w", err)
	}
	tail, err := replayWAL(s.wal.f, func(rec walRecord) {
		switch rec.op {
		case walOpSet:
			s.set(rec.key, rec.val, rec.version)
		case walOpDelete:
			s.delete(rec.key)
		}
	})
	if err != nil {
		s.closeFiles()
		return nil, err
	}
	if err := s.wal.f.Truncate(tail); err != nil {
		s.closeFiles()
		return nil, fmt.Errorf("pagedstate: truncate torn wal: %w", err)
	}
	s.wal.written = tail
	if walInfo.Size() > 0 {
		// Crash recovery: the pages may already contain logged writes that
		// were evicted and flushed before the crash, so replay alone cannot
		// maintain the key count or the Bloom filters (a replayed Set that
		// finds its key present takes the update path). The surviving pages
		// are the ground truth — rebuild both from a full scan, then
		// checkpoint so the next open starts clean.
		s.rebuildIndex()
		if err := s.checkpoint(); err != nil {
			s.closeFiles()
			return nil, err
		}
	}
	return s, nil
}

// rebuildIndex recomputes the live-key count and repopulates the Bloom
// filters from a scan of every reachable page. Caller holds s.mu (or is
// single-threaded in Open).
func (s *Store) rebuildIndex() {
	s.count = 0
	s.resetBloom(s.cfg.ExpectedKeys)
	s.iterate(func(key string, _ []byte, _ uint64) {
		s.count++
		s.bloomAdd(key)
	})
}

func (s *Store) closeFiles() {
	if s.wal != nil {
		s.wal.f.Close()
	}
	s.pageFile.Close()
}

func (s *Store) resetBloom(expected int) {
	if s.cfg.DisableBloom {
		return
	}
	if expected < 1024 {
		expected = 1024
	}
	s.blooms = []*bloom.Filter{bloom.New(expected, bloomFPRate)}
	s.bloomCap = expected
}

// bucketOf hashes a key to its directory bucket (inline FNV-1a: the hot
// path must not allocate a byte-slice copy of every key).
func (s *Store) bucketOf(key string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h & uint32(len(s.dir)-1)
}

// fatal wraps an unrecoverable I/O error. The StateBackend interface has
// no error returns, so the hot path surfaces disk failure by panicking.
func fatal(err error) {
	panic(fmt.Sprintf("pagedstate: unrecoverable store error: %v", err))
}

// Get implements chain.StateBackend.
func (s *Store) Get(key string) (val []byte, version uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	if !s.mayContain(key) {
		s.bloomNeg++
		return nil, 0, false
	}
	id := s.dir[s.bucketOf(key)]
	for id != nilPage {
		fr, err := s.cache.get(id, false)
		if err != nil {
			fatal(err)
		}
		p := page{buf: fr.buf}
		if i := p.find(key); i >= 0 {
			v, ver := p.cellValue(i)
			// Copy out: the frame's buffer is recycled on eviction.
			return append([]byte(nil), v...), ver, true
		}
		id = p.next()
	}
	return nil, 0, false
}

// Set implements chain.StateBackend.
func (s *Store) Set(key string, val []byte, version uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sets++
	if err := s.wal.appendRecord(walOpSet, key, val, version); err != nil {
		fatal(err)
	}
	s.set(key, val, version)
	s.maybeCheckpoint()
}

// set applies a write to the pages (shared by Set, WAL replay and snapshot
// load, which log — or don't — at their own layer).
func (s *Store) set(key string, val []byte, version uint64) {
	maxCell := s.cfg.PageSize - pageHeaderSize - slotSize
	if len(key) > 0xFFFF || len(val) > 0xFFFF || cellSize(len(key), len(val)) > maxCell {
		fatal(fmt.Errorf("entry %q: key %d + value %d bytes exceeds page capacity %d", key, len(key), len(val), maxCell-cellHeaderSize))
	}
	bucket := s.bucketOf(key)
	var fitID = nilPage
	id := s.dir[bucket]
	for id != nilPage {
		fr, err := s.cache.get(id, false)
		if err != nil {
			fatal(err)
		}
		p := page{buf: fr.buf}
		if i := p.find(key); i >= 0 {
			if p.update(i, key, val, version, s.scratch) {
				s.markDirty(fr)
				return
			}
			// The longer value no longer fits here: delete and reinsert.
			p.remove(i)
			s.markDirty(fr)
			s.count--
			break
		}
		if fitID == nilPage && p.fits(len(key), len(val)) {
			fitID = id
		}
		id = p.next()
	}
	s.insertNew(bucket, fitID, key, val, version)
	s.count++
	s.bloomAdd(key)
}

// insertNew places a key known to be absent, into fitID when the walk found
// room there, else into a freshly allocated page linked at the chain head.
func (s *Store) insertNew(bucket uint32, fitID uint32, key string, val []byte, version uint64) {
	if fitID != nilPage {
		fr, err := s.cache.get(fitID, false)
		if err != nil {
			fatal(err)
		}
		p := page{buf: fr.buf}
		if p.garbage() > 0 && p.freeSpace() < slotSize+cellSize(len(key), len(val)) {
			s.compactions++
		}
		p.insert(key, val, version, s.scratch)
		s.markDirty(fr)
		return
	}
	newID := s.nextPage
	s.nextPage++
	fr, err := s.cache.get(newID, true)
	if err != nil {
		fatal(err)
	}
	p := page{buf: fr.buf}
	p.setNext(s.dir[bucket])
	p.insert(key, val, version, s.scratch)
	s.markDirty(fr)
	s.dir[bucket] = newID
}

// markDirty stamps fr with the WAL end offset (its LSN): the page image may
// reach disk only once the log is durable up to there.
func (s *Store) markDirty(fr *frame) {
	fr.dirty = true
	fr.lsn = s.wal.written + int64(len(s.wal.buf))
}

// Delete implements chain.StateBackend.
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deletes++
	if !s.mayContain(key) {
		s.bloomNeg++
		return
	}
	if err := s.wal.appendRecord(walOpDelete, key, nil, 0); err != nil {
		fatal(err)
	}
	s.delete(key)
	s.maybeCheckpoint()
}

// maybeCheckpoint bounds WAL growth during long runs: once the log (durable
// plus pending) outgrows the configured budget, fold it into the pages.
// Caller holds s.mu.
func (s *Store) maybeCheckpoint() {
	if s.cfg.CheckpointWALBytes < 0 {
		return
	}
	if s.wal.written+int64(len(s.wal.buf)) >= int64(s.cfg.CheckpointWALBytes) {
		if err := s.checkpoint(); err != nil {
			fatal(err)
		}
	}
}

func (s *Store) delete(key string) {
	id := s.dir[s.bucketOf(key)]
	for id != nilPage {
		fr, err := s.cache.get(id, false)
		if err != nil {
			fatal(err)
		}
		p := page{buf: fr.buf}
		if i := p.find(key); i >= 0 {
			p.remove(i)
			s.markDirty(fr)
			s.count--
			return
		}
		id = p.next()
	}
}

// Len implements chain.StateBackend.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Keys implements chain.StateBackend: every live key in ascending order.
// This scans the whole store — it serves audits, conservation checks and
// tests, not the hot path.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, s.count)
	s.iterate(func(key string, _ []byte, _ uint64) {
		keys = append(keys, key)
	})
	sort.Strings(keys)
	return keys
}

// iterate visits every live entry in directory order. Value bytes alias the
// page buffer and are only valid within the callback. Caller holds s.mu.
func (s *Store) iterate(fn func(key string, val []byte, version uint64)) {
	for _, head := range s.dir {
		id := head
		for id != nilPage {
			fr, err := s.cache.get(id, false)
			if err != nil {
				fatal(err)
			}
			fr.pinned = true
			p := page{buf: fr.buf}
			for i, n := 0, p.nslots(); i < n; i++ {
				if _, cl := p.slot(i); cl == 0 {
					continue
				}
				v, ver := p.cellValue(i)
				fn(string(p.cellKey(i)), v, ver)
			}
			fr.pinned = false
			id = p.next()
		}
	}
}

func (s *Store) mayContain(key string) bool {
	if s.cfg.DisableBloom {
		return true
	}
	for i := len(s.blooms) - 1; i >= 0; i-- {
		if s.blooms[i].ContainsString(key) {
			return true
		}
	}
	return false
}

func (s *Store) bloomAdd(key string) {
	if s.cfg.DisableBloom {
		return
	}
	top := s.blooms[len(s.blooms)-1]
	if top.Count() >= uint64(s.bloomCap) {
		// Stack a filter 4× the last capacity: lookups stay O(filters)
		// while the false-positive rate of each layer holds its target.
		s.bloomCap *= 4
		top = bloom.New(s.bloomCap, bloomFPRate)
		s.blooms = append(s.blooms, top)
	}
	top.AddString(key)
}

// Sync forces the pending WAL batch to the file (an explicit group commit).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.flush()
}

// Checkpoint makes pages and meta self-consistent on disk and truncates the
// WAL: flush the log, write back every dirty page, persist the directory
// and Bloom filters, then reset the log.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpoint()
}

func (s *Store) checkpoint() error {
	if err := s.wal.flush(); err != nil {
		return err
	}
	if err := s.cache.flushAll(); err != nil {
		return err
	}
	if err := s.saveMeta(); err != nil {
		return err
	}
	s.checkpoints++
	return s.wal.reset()
}

// Close checkpoints and releases the files. The store is unusable after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.checkpoint()
	if werr := s.wal.close(); err == nil {
		err = werr
	}
	if perr := s.pageFile.Close(); err == nil {
		err = perr
	}
	return err
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Gets: s.gets, Sets: s.sets, Deletes: s.deletes,
		CacheHits: s.cache.hits, CacheMisses: s.cache.misses,
		BloomNegatives:   s.bloomNeg,
		Evictions:        s.cache.evictions,
		Compactions:      s.compactions,
		PagesAllocated:   int(s.nextPage),
		ResidentPages:    s.cache.resident(),
		CacheBudgetBytes: s.cfg.CacheBytes,
		WALBytes:         s.wal.written + int64(len(s.wal.buf)),
		WALFlushes:       s.wal.flushes,
		Checkpoints:      s.checkpoints,
		LiveKeys:         s.count,
	}
}

// saveMeta atomically persists the directory, allocation cursor, key count
// and Bloom filters (meta.bin.tmp + rename).
func (s *Store) saveMeta() error {
	var out []byte
	var u32 [4]byte
	var u64 [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		out = append(out, u32[:]...)
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(u64[:], v)
		out = append(out, u64[:]...)
	}
	put32(metaMagic)
	put32(metaFormatVersion)
	put32(uint32(s.cfg.PageSize))
	put32(uint32(len(s.dir)))
	put32(s.nextPage)
	put64(uint64(s.count))
	put32(uint32(s.bloomCap))
	put32(uint32(len(s.blooms)))
	for _, f := range s.blooms {
		blob, err := f.MarshalBinary()
		if err != nil {
			return fmt.Errorf("pagedstate: marshal bloom: %w", err)
		}
		put32(uint32(len(blob)))
		out = append(out, blob...)
	}
	for _, head := range s.dir {
		put32(head)
	}
	put32(crc32.ChecksumIEEE(out))

	path := filepath.Join(s.cfg.Dir, "meta.bin")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return fmt.Errorf("pagedstate: write meta: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("pagedstate: commit meta: %w", err)
	}
	return nil
}

// loadMeta restores the directory and filters; a missing file means a
// fresh store (s.dir stays nil for Open to initialise).
func (s *Store) loadMeta() error {
	data, err := os.ReadFile(filepath.Join(s.cfg.Dir, "meta.bin"))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("pagedstate: read meta: %w", err)
	}
	if len(data) < 4+4+4+4+4+8+4+4+4 {
		return fmt.Errorf("pagedstate: meta truncated to %d bytes", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return fmt.Errorf("pagedstate: meta checksum mismatch")
	}
	off := 0
	get32 := func() uint32 {
		v := binary.LittleEndian.Uint32(body[off:])
		off += 4
		return v
	}
	if get32() != metaMagic {
		return fmt.Errorf("pagedstate: meta magic mismatch")
	}
	if v := get32(); v != metaFormatVersion {
		return fmt.Errorf("pagedstate: meta format %d unsupported", v)
	}
	if ps := int(get32()); ps != s.cfg.PageSize {
		return fmt.Errorf("pagedstate: store has %d-byte pages, config wants %d", ps, s.cfg.PageSize)
	}
	nBuckets := int(get32())
	s.nextPage = get32()
	s.count = int(binary.LittleEndian.Uint64(body[off:]))
	off += 8
	s.bloomCap = int(get32())
	nBlooms := int(get32())
	if nBuckets <= 0 || nBuckets > 1<<26 || nBlooms > 64 {
		return fmt.Errorf("pagedstate: meta inconsistent (%d buckets, %d blooms)", nBuckets, nBlooms)
	}
	s.blooms = nil
	for i := 0; i < nBlooms; i++ {
		if off+4 > len(body) {
			return fmt.Errorf("pagedstate: meta bloom %d truncated", i)
		}
		bl := int(get32())
		if off+bl > len(body) {
			return fmt.Errorf("pagedstate: meta bloom %d truncated", i)
		}
		f, err := bloom.UnmarshalBinary(body[off : off+bl])
		if err != nil {
			return fmt.Errorf("pagedstate: meta bloom %d: %w", i, err)
		}
		off += bl
		s.blooms = append(s.blooms, f)
	}
	if off+4*nBuckets != len(body) {
		return fmt.Errorf("pagedstate: meta directory length mismatch")
	}
	s.dir = make([]uint32, nBuckets)
	for i := range s.dir {
		s.dir[i] = get32()
	}
	if s.cfg.DisableBloom {
		s.blooms = nil
	} else if len(s.blooms) == 0 {
		s.resetBloom(s.cfg.ExpectedKeys)
	}
	return nil
}
