package pagedstate

import (
	"encoding/binary"
	"fmt"
)

// Page layout (all integers little-endian). Pages are fixed-size slotted
// pages in the charvel_db idiom: a small header, a slot array growing up
// from the header, and cells growing down from the end of the page.
//
//	offset 0  next       uint32  overflow-chain successor (nilPage = none)
//	offset 4  nslots     uint16  live slot count
//	offset 6  cellStart  uint16  lowest byte used by cell data
//	offset 8  garbage    uint16  dead cell bytes reclaimable by compaction
//	offset 10 reserved   uint16  zero
//	offset 12 slots      nslots × {cellOff uint16, cellLen uint16}
//
// A cell is [keyLen uint16][valLen uint16][version uint64][key][val]. Slot
// order within a page carries no meaning — Keys() sorts globally — so
// deletion swaps the last slot into the vacated index.
const (
	pageHeaderSize = 12
	slotSize       = 4
	cellHeaderSize = 12

	// nilPage terminates an overflow chain. Page IDs index the page file
	// directly (offset = id × pageSize), so 0 is a valid page.
	nilPage = ^uint32(0)
)

// page is a view over one fixed-size buffer. The methods never allocate;
// compaction borrows a scratch buffer from the store's frame pool.
type page struct {
	buf []byte
}

func (p page) next() uint32      { return binary.LittleEndian.Uint32(p.buf[0:4]) }
func (p page) setNext(id uint32) { binary.LittleEndian.PutUint32(p.buf[0:4], id) }

func (p page) nslots() int        { return int(binary.LittleEndian.Uint16(p.buf[4:6])) }
func (p page) setNslots(n int)    { binary.LittleEndian.PutUint16(p.buf[4:6], uint16(n)) }
func (p page) cellStart() int     { return int(binary.LittleEndian.Uint16(p.buf[6:8])) }
func (p page) setCellStart(o int) { binary.LittleEndian.PutUint16(p.buf[6:8], uint16(o)) }
func (p page) garbage() int       { return int(binary.LittleEndian.Uint16(p.buf[8:10])) }
func (p page) setGarbage(g int)   { binary.LittleEndian.PutUint16(p.buf[8:10], uint16(g)) }

// init formats the buffer as an empty page.
func (p page) init() {
	for i := 0; i < pageHeaderSize; i++ {
		p.buf[i] = 0
	}
	p.setNext(nilPage)
	p.setCellStart(len(p.buf))
}

func (p page) slotOff(i int) int { return pageHeaderSize + i*slotSize }

func (p page) slot(i int) (cellOff, cellLen int) {
	o := p.slotOff(i)
	return int(binary.LittleEndian.Uint16(p.buf[o : o+2])), int(binary.LittleEndian.Uint16(p.buf[o+2 : o+4]))
}

func (p page) setSlot(i, cellOff, cellLen int) {
	o := p.slotOff(i)
	binary.LittleEndian.PutUint16(p.buf[o:o+2], uint16(cellOff))
	binary.LittleEndian.PutUint16(p.buf[o+2:o+4], uint16(cellLen))
}

// cellKey returns the key bytes of slot i, aliasing the page buffer.
func (p page) cellKey(i int) []byte {
	off, _ := p.slot(i)
	kl := int(binary.LittleEndian.Uint16(p.buf[off : off+2]))
	return p.buf[off+cellHeaderSize : off+cellHeaderSize+kl]
}

// cellValue returns the value bytes and version of slot i, aliasing the
// page buffer.
func (p page) cellValue(i int) ([]byte, uint64) {
	off, _ := p.slot(i)
	kl := int(binary.LittleEndian.Uint16(p.buf[off : off+2]))
	vl := int(binary.LittleEndian.Uint16(p.buf[off+2 : off+4]))
	ver := binary.LittleEndian.Uint64(p.buf[off+4 : off+12])
	vo := off + cellHeaderSize + kl
	return p.buf[vo : vo+vl], ver
}

// find returns the slot index holding key, or -1.
func (p page) find(key string) int {
	for i, n := 0, p.nslots(); i < n; i++ {
		k := p.cellKey(i)
		if string(k) == key { // no alloc: compiler-recognised comparison
			return i
		}
	}
	return -1
}

// freeSpace is the contiguous gap between the slot array and the cells.
func (p page) freeSpace() int {
	return p.cellStart() - (pageHeaderSize + p.nslots()*slotSize)
}

// cellSize is the cell footprint of an entry.
func cellSize(keyLen, valLen int) int { return cellHeaderSize + keyLen + valLen }

// fits reports whether a fresh insert of the given entry can succeed,
// counting reclaimable garbage (an insert may first compact).
func (p page) fits(keyLen, valLen int) bool {
	return p.freeSpace()+p.garbage() >= slotSize+cellSize(keyLen, valLen)
}

// insert adds a new entry. The caller has checked fits() and that the key
// is absent; insert compacts first when the contiguous gap alone is too
// small. scratch must be a buffer of the same size as the page.
func (p page) insert(key string, val []byte, version uint64, scratch []byte) {
	need := slotSize + cellSize(len(key), len(val))
	if p.freeSpace() < need {
		p.compact(scratch)
	}
	n := p.nslots()
	cl := cellSize(len(key), len(val))
	off := p.cellStart() - cl
	p.writeCell(off, key, val, version)
	p.setCellStart(off)
	p.setSlot(n, off, cl)
	p.setNslots(n + 1)
}

func (p page) writeCell(off int, key string, val []byte, version uint64) {
	binary.LittleEndian.PutUint16(p.buf[off:off+2], uint16(len(key)))
	binary.LittleEndian.PutUint16(p.buf[off+2:off+4], uint16(len(val)))
	binary.LittleEndian.PutUint64(p.buf[off+4:off+12], version)
	copy(p.buf[off+cellHeaderSize:], key)
	copy(p.buf[off+cellHeaderSize+len(key):], val)
}

// update rewrites slot i's value. Same-length values are patched in place;
// otherwise the old cell becomes garbage and a new cell is written (the
// caller has checked fitsUpdate). Returns false when the page cannot hold
// the longer value even after compaction, in which case the caller deletes
// here and reinserts elsewhere in the chain.
func (p page) update(i int, key string, val []byte, version uint64, scratch []byte) bool {
	off, cl := p.slot(i)
	kl := int(binary.LittleEndian.Uint16(p.buf[off : off+2]))
	oldVl := int(binary.LittleEndian.Uint16(p.buf[off+2 : off+4]))
	if len(val) == oldVl {
		binary.LittleEndian.PutUint64(p.buf[off+4:off+12], version)
		copy(p.buf[off+cellHeaderSize+kl:], val)
		return true
	}
	newCl := cellSize(kl, len(val))
	if p.freeSpace()+p.garbage()+cl < newCl {
		return false
	}
	// Retire the old cell, then place the new one (compacting if the
	// contiguous gap is too small — compaction runs after the slot is
	// re-pointed at nothing, so mark it garbage first).
	p.setGarbage(p.garbage() + cl)
	p.setSlot(i, 0, 0)
	if p.freeSpace() < newCl {
		p.compact(scratch)
	}
	noff := p.cellStart() - newCl
	p.writeCell(noff, key, val, version)
	p.setCellStart(noff)
	p.setSlot(i, noff, newCl)
	return true
}

// remove deletes slot i by swapping the last slot into its place.
func (p page) remove(i int) {
	_, cl := p.slot(i)
	n := p.nslots()
	if cl > 0 {
		p.setGarbage(p.garbage() + cl)
	}
	last := n - 1
	if i != last {
		lo, ll := p.slot(last)
		p.setSlot(i, lo, ll)
	}
	p.setSlot(last, 0, 0)
	p.setNslots(last)
}

// compact repacks live cells against the end of the page, zeroing garbage.
// scratch receives the packed image and is copied back.
func (p page) compact(scratch []byte) {
	s := page{buf: scratch}
	s.init()
	s.setNext(p.next())
	write := len(scratch)
	n := p.nslots()
	s.setNslots(n)
	for i := 0; i < n; i++ {
		off, cl := p.slot(i)
		if cl == 0 { // tombstoned slot mid-update
			s.setSlot(i, 0, 0)
			continue
		}
		write -= cl
		copy(scratch[write:], p.buf[off:off+cl])
		s.setSlot(i, write, cl)
	}
	s.setCellStart(write)
	s.setGarbage(0)
	copy(p.buf, scratch)
}

// validate structurally checks a page read from disk: every slot must
// reference a well-formed cell inside the cell area, with no overlap into
// the slot array. It returns nil for a healthy page.
func (p page) validate() error {
	size := len(p.buf)
	if size < pageHeaderSize {
		return fmt.Errorf("pagedstate: page truncated to %d bytes", size)
	}
	n := p.nslots()
	cs := p.cellStart()
	slotEnd := pageHeaderSize + n*slotSize
	if cs > size || slotEnd > cs {
		return fmt.Errorf("pagedstate: page header inconsistent: %d slots, cellStart %d, size %d", n, cs, size)
	}
	for i := 0; i < n; i++ {
		off, cl := p.slot(i)
		if cl == 0 {
			continue
		}
		if cl < cellHeaderSize || off < cs || off+cl > size {
			return fmt.Errorf("pagedstate: slot %d references cell [%d,%d) outside cell area [%d,%d)", i, off, off+cl, cs, size)
		}
		kl := int(binary.LittleEndian.Uint16(p.buf[off : off+2]))
		vl := int(binary.LittleEndian.Uint16(p.buf[off+2 : off+4]))
		if cellHeaderSize+kl+vl != cl {
			return fmt.Errorf("pagedstate: slot %d cell length %d does not match key %d + val %d", i, cl, kl, vl)
		}
	}
	return nil
}
