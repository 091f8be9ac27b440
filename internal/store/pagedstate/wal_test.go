package pagedstate

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// crashStore populates a store and abandons it without Close — the page
// file and meta are whatever eviction happened to flush, and the WAL holds
// the full history. Sync flushes the group-commit buffer the way a crash
// after a durable batch would have.
func crashStore(t *testing.T, cfg Config, n int) {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s.Set(fmt.Sprintf("key%05d", i), []byte(fmt.Sprintf("val%d", i)), uint64(i))
	}
	s.Delete("key00001")
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: drop the handles without checkpoint or close.
	s.wal.f.Close()
	s.pageFile.Close()
}

func TestWALCrashRecovery(t *testing.T) {
	cfg := testConfig(t)
	const n = 4000
	crashStore(t, cfg, n)

	s := mustOpen(t, cfg)
	if got := s.Len(); got != n-1 {
		t.Fatalf("recovered Len = %d, want %d", got, n-1)
	}
	if _, _, ok := s.Get("key00001"); ok {
		t.Fatal("deleted key survived recovery")
	}
	for _, i := range []int{0, 2, n / 2, n - 1} {
		k := fmt.Sprintf("key%05d", i)
		v, ver, ok := s.Get(k)
		if !ok || string(v) != fmt.Sprintf("val%d", i) || ver != uint64(i) {
			t.Fatalf("recovered Get(%s) = %q v%d ok=%v", k, v, ver, ok)
		}
	}
	// Recovery checkpoints, so the log is clean and a second open replays
	// nothing new.
	if st := s.Stats(); st.WALBytes != 0 {
		t.Fatalf("post-recovery WAL holds %d bytes, want 0", st.WALBytes)
	}
}

// TestCrashRecoveryAfterCheckpoint crashes a store that had checkpointed
// earlier: post-checkpoint writes land in pages reachable from the
// persisted directory and are flushed by eviction, so replay finds those
// keys already present on disk. Recovery must still end with every key in
// the Bloom filter and an exact count (regression: the meta-restored
// filter and count used to win, silently losing post-checkpoint keys).
func TestCrashRecoveryAfterCheckpoint(t *testing.T) {
	cfg := testConfig(t)
	const base, extra = 2000, 2000
	key := func(i int) string { return fmt.Sprintf("key%05d", i) }
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < base; i++ {
		s.Set(key(i), []byte(fmt.Sprintf("val%d", i)), uint64(i))
	}
	// Close checkpoints: meta now holds the directory, count and Bloom
	// filters for the base keys only.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := base; i < base+extra; i++ {
		s2.Set(key(i), []byte(fmt.Sprintf("val%d", i)), uint64(i))
	}
	s2.Delete(key(0)) // a checkpointed key: replay must re-drop it from the rebuilt count
	if st := s2.Stats(); st.Evictions == 0 {
		t.Fatal("no evictions before the crash — the scenario needs flushed dirty pages")
	}
	if err := s2.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash: drop the handles without checkpoint or close.
	s2.wal.f.Close()
	s2.pageFile.Close()

	s3 := mustOpen(t, cfg)
	if got := s3.Len(); got != base+extra-1 {
		t.Fatalf("recovered Len = %d, want %d", got, base+extra-1)
	}
	if _, _, ok := s3.Get(key(0)); ok {
		t.Fatal("replayed delete resurrected its key")
	}
	for i := 1; i < base+extra; i++ {
		v, ver, ok := s3.Get(key(i))
		if !ok || string(v) != fmt.Sprintf("val%d", i) || ver != uint64(i) {
			t.Fatalf("recovered Get(%s) = %q v%d ok=%v — key lost to a stale bloom/count", key(i), v, ver, ok)
		}
	}
	// Delete is bloom-gated too: a recovered key must stay deletable.
	s3.Delete(key(base + 1))
	if _, _, ok := s3.Get(key(base + 1)); ok {
		t.Fatal("post-recovery delete of a replayed key did not stick")
	}
	if got := s3.Len(); got != base+extra-2 {
		t.Fatalf("Len after post-recovery delete = %d, want %d", got, base+extra-2)
	}
}

// TestEvictionFlushesWALFirst crashes without ever syncing: the only WAL
// flushes are the ones dirty-page eviction performs before write-back.
// Recovery must land on an exact record-aligned prefix of the operation
// sequence — pages on disk may never hold writes the log does not
// (regression: eviction used to write back unlogged mutations).
func TestEvictionFlushesWALFirst(t *testing.T) {
	cfg := testConfig(t)
	cfg.WALFlushBytes = 1 << 30 // group commit never fires on its own
	const base, extra = 1000, 3000
	key := func(i int) string { return fmt.Sprintf("key%05d", i) }
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < base; i++ {
		s.Set(key(i), []byte(fmt.Sprintf("val%d", i)), uint64(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := base; i < base+extra; i++ {
		s2.Set(key(i), []byte(fmt.Sprintf("val%d", i)), uint64(i))
	}
	if st := s2.Stats(); st.Evictions == 0 {
		t.Fatal("no evictions before the crash — nothing forced a WAL flush")
	}
	// Crash with the group-commit buffer unflushed.
	s2.wal.f.Close()
	s2.pageFile.Close()

	s3 := mustOpen(t, cfg)
	n := s3.Len()
	if n < base {
		t.Fatalf("recovery lost checkpointed keys: Len %d < %d", n, base)
	}
	if got := len(s3.Keys()); got != n {
		t.Fatalf("Len %d but %d live keys on pages — index out of sync with unlogged writes", n, got)
	}
	for i := 0; i < base+extra; i++ {
		_, _, ok := s3.Get(key(i))
		if want := i < n; ok != want {
			t.Fatalf("recovered state is not a prefix: Get(%s) ok=%v with Len %d", key(i), ok, n)
		}
	}
}

// TestEvictionFlushesWALOnlyWhenPageNeedsIt checks the page-LSN rule:
// evicting a dirty page whose records Sync already made durable costs no
// WAL flush even while another page's record waits in the group-commit
// buffer, and evicting that other page flushes the buffer first.
func TestEvictionFlushesWALOnlyWhenPageNeedsIt(t *testing.T) {
	cfg := testConfig(t)
	cfg.WALFlushBytes = 1 << 30 // group commit never fires on its own
	s := mustOpen(t, cfg)
	defer s.Close()
	const n = 4000
	key := func(i int) string { return fmt.Sprintf("key%05d", i) }
	for i := 0; i < n; i++ {
		s.Set(key(i), []byte(fmt.Sprintf("val%d", i)), uint64(i))
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Set(key(0), []byte("changed"), n)
	pending := s.wal.written + int64(len(s.wal.buf))
	// The page holding key(0) is the only one whose record is not durable;
	// pin it so the first round of evictions skips it.
	var hot *frame
	for _, fr := range s.cache.frames {
		if fr.dirty && fr.lsn > s.wal.written {
			if hot != nil {
				t.Fatal("more than one page waits for the pending record")
			}
			hot = fr
		}
	}
	if hot == nil {
		t.Fatal("no resident page waits for the pending record")
	}
	// evictAllDirty reads every key until no resident page but a pinned
	// one is dirty: each page dirty on entry has been written back.
	evictAllDirty := func() {
		t.Helper()
		for pass := 0; pass < 10; pass++ {
			dirty := 0
			for _, fr := range s.cache.frames {
				if fr.dirty && !fr.pinned {
					dirty++
				}
			}
			if dirty == 0 {
				return
			}
			for i := 0; i < n; i++ {
				s.Get(key(i))
			}
		}
		t.Fatal("reads never evicted every dirty page")
	}

	hot.pinned = true
	before := s.Stats()
	evictAllDirty()
	after := s.Stats()
	if after.Evictions == before.Evictions {
		t.Fatal("reads evicted nothing")
	}
	if after.WALFlushes != before.WALFlushes {
		t.Fatalf("evicting pages whose records were synced flushed the WAL %d times", after.WALFlushes-before.WALFlushes)
	}

	hot.pinned = false
	evictAllDirty()
	if got := s.Stats().WALFlushes - after.WALFlushes; got != 1 {
		t.Fatalf("evicting the page with a pending record flushed the WAL %d times, want 1", got)
	}
	if s.wal.written != pending {
		t.Fatalf("durable WAL ends at %d, want %d (through the pending record)", s.wal.written, pending)
	}
}

// TestWALTornTail truncates the log mid-record at every boundary around the
// last few records: replay must recover exactly the whole-record prefix and
// never error, mirroring a crash that tore the final write.
func TestWALTornTail(t *testing.T) {
	cfg := testConfig(t)
	cfg.Dir = t.TempDir()
	const n = 50
	crashStore(t, cfg, n)
	walPath := filepath.Join(cfg.Dir, "wal.log")
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	// Decode the intact log to find each record's end offset.
	var ends []int
	off := 0
	for off < len(full) {
		_, sz, ok := decodeWALRecord(full[off:])
		if !ok {
			t.Fatalf("intact log failed to decode at %d", off)
		}
		off += sz
		ends = append(ends, off)
	}
	if len(ends) != n+1 { // n sets + 1 delete
		t.Fatalf("log has %d records, want %d", len(ends), n+1)
	}

	for _, cut := range []int{
		ends[len(ends)-1] - 1, // tear the last record's CRC
		ends[len(ends)-2] + 3, // tear mid-header
		ends[len(ends)-3],     // clean cut: full prefix
		1,                     // almost everything gone
	} {
		dir := t.TempDir()
		target := Config{Dir: dir, PageSize: cfg.PageSize, CacheBytes: cfg.CacheBytes, ExpectedKeys: cfg.ExpectedKeys}
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// Count how many whole records survive the cut.
		whole := 0
		for _, e := range ends {
			if e <= cut {
				whole++
			}
		}
		s, err := Open(target)
		if err != nil {
			t.Fatalf("cut=%d: open failed: %v", cut, err)
		}
		wantLen := whole
		if whole == n+1 { // the delete replayed too
			wantLen = n - 1
		}
		if got := s.Len(); got != wantLen {
			t.Fatalf("cut=%d: recovered %d keys, want %d", cut, got, wantLen)
		}
		for i := 0; i < whole && i < n; i++ {
			k := fmt.Sprintf("key%05d", i)
			if _, _, ok := s.Get(k); !ok {
				t.Fatalf("cut=%d: key %s lost from whole-record prefix", cut, k)
			}
		}
		s.Close()
	}
}

// TestWALCorruptMiddle flips a byte inside an early record: replay must
// stop at the corruption (CRC) and keep only the prefix, not crash.
func TestWALCorruptMiddle(t *testing.T) {
	cfg := testConfig(t)
	cfg.Dir = t.TempDir()
	crashStore(t, cfg, 50)
	walPath := filepath.Join(cfg.Dir, "wal.log")
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	full[len(full)/2] ^= 0xFF
	if err := os.WriteFile(walPath, full, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Len(); got == 0 || got >= 50 {
		t.Fatalf("corrupt-middle recovery kept %d keys, want a proper prefix", got)
	}
}

func TestWALGroupCommitBatches(t *testing.T) {
	cfg := testConfig(t)
	cfg.WALFlushBytes = 4096
	// Evicting a dirty page forces its own WAL flush; cache everything so
	// this test isolates the threshold-driven batching.
	cfg.CacheBytes = 4 << 20
	s := mustOpen(t, cfg)
	for i := 0; i < 1000; i++ {
		s.Set(fmt.Sprintf("key%04d", i), []byte("0123456789abcdef"), uint64(i))
	}
	st := s.Stats()
	if st.WALFlushes == 0 {
		t.Fatal("threshold crossings never flushed the group-commit buffer")
	}
	// ~37 bytes per record, 1000 records, 4 KiB batches → tens of
	// flushes; one syscall per record would be ≥1000.
	if st.WALFlushes > 100 {
		t.Fatalf("%d WAL flushes for 1000 records — group commit is not batching", st.WALFlushes)
	}
}
