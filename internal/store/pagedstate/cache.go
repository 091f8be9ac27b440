package pagedstate

import (
	"fmt"
	"os"
)

// frame is one resident page. Frames live in a fixed ring once the cache is
// warm; eviction recycles the buffer for the incoming page, so steady-state
// operation allocates nothing.
type frame struct {
	id    uint32
	dirty bool
	lsn   int64 // WAL end offset after the frame's last change

	ref    bool // clock reference bit
	pinned bool // in use by the current operation; never evicted
	buf    []byte
}

// pageCache is a clock (second-chance) cache over the page file, bounded by
// a byte budget. It is not safe for concurrent use; the store serialises
// access.
type pageCache struct {
	file      *os.File
	pageSize  int
	maxFrames int
	frames    []*frame
	byID      map[uint32]*frame
	hand      int
	freeBufs  [][]byte // recycled buffers from dropped frames
	// wal, once the store sets it, is flushed before a dirty frame whose
	// lsn it has not yet made durable is written back, so no page image can
	// land on disk ahead of the log records that produced it.
	wal *wal

	hits      int64
	misses    int64
	evictions int64
}

func newPageCache(file *os.File, pageSize, budgetBytes int) *pageCache {
	maxFrames := budgetBytes / pageSize
	if maxFrames < 8 {
		maxFrames = 8
	}
	return &pageCache{
		file:      file,
		pageSize:  pageSize,
		maxFrames: maxFrames,
		byID:      make(map[uint32]*frame, maxFrames),
	}
}

// get returns the frame holding page id, reading it from disk on a miss.
// fresh marks a page that was just allocated and has no disk image yet.
func (c *pageCache) get(id uint32, fresh bool) (*frame, error) {
	if fr, ok := c.byID[id]; ok {
		fr.ref = true
		c.hits++
		return fr, nil
	}
	c.misses++
	fr, err := c.victim()
	if err != nil {
		return nil, err
	}
	fr.id = id
	fr.dirty = false
	fr.ref = true
	if fresh {
		page{buf: fr.buf}.init()
		fr.dirty = true
	} else {
		if _, err := c.file.ReadAt(fr.buf, int64(id)*int64(c.pageSize)); err != nil {
			c.release(fr)
			return nil, fmt.Errorf("pagedstate: read page %d: %w", id, err)
		}
		if err := (page{buf: fr.buf}).validate(); err != nil {
			c.release(fr)
			return nil, fmt.Errorf("page %d: %w", id, err)
		}
	}
	c.byID[id] = fr
	return fr, nil
}

// victim produces an empty frame: a fresh allocation while under budget, a
// recycled buffer, or the first unpinned clock victim (flushed if dirty).
func (c *pageCache) victim() (*frame, error) {
	if len(c.frames) < c.maxFrames {
		fr := &frame{}
		if n := len(c.freeBufs); n > 0 {
			fr.buf = c.freeBufs[n-1]
			c.freeBufs = c.freeBufs[:n-1]
		} else {
			fr.buf = make([]byte, c.pageSize)
		}
		c.frames = append(c.frames, fr)
		return fr, nil
	}
	for sweep := 0; sweep < 2*len(c.frames); sweep++ {
		fr := c.frames[c.hand]
		c.hand = (c.hand + 1) % len(c.frames)
		if fr.pinned {
			continue
		}
		if fr.ref {
			fr.ref = false
			continue
		}
		if err := c.writeBack(fr); err != nil {
			return nil, err
		}
		delete(c.byID, fr.id)
		c.evictions++
		return fr, nil
	}
	return nil, fmt.Errorf("pagedstate: cache of %d frames has no evictable page (all pinned)", len(c.frames))
}

// release returns a frame whose fill failed to the free pool.
func (c *pageCache) release(fr *frame) {
	for i, f := range c.frames {
		if f == fr {
			last := len(c.frames) - 1
			c.frames[i] = c.frames[last]
			c.frames = c.frames[:last]
			if c.hand >= len(c.frames) {
				c.hand = 0
			}
			break
		}
	}
	c.freeBufs = append(c.freeBufs, fr.buf)
}

func (c *pageCache) writeBack(fr *frame) error {
	if !fr.dirty {
		return nil
	}
	if c.wal != nil && fr.lsn > c.wal.written {
		if err := c.wal.flush(); err != nil {
			return err
		}
	}
	if _, err := c.file.WriteAt(fr.buf, int64(fr.id)*int64(c.pageSize)); err != nil {
		return fmt.Errorf("pagedstate: write page %d: %w", fr.id, err)
	}
	fr.dirty = false
	return nil
}

// flushAll writes every dirty frame back to the page file (checkpoint).
func (c *pageCache) flushAll() error {
	for _, fr := range c.frames {
		if err := c.writeBack(fr); err != nil {
			return err
		}
	}
	return nil
}

// resident reports the number of frames currently held.
func (c *pageCache) resident() int { return len(c.frames) }
