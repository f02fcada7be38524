package rankcache

import "math/bits"

// cmSketch is a 4-bit count-min sketch: cmRows rows of power-of-two width,
// two counters packed per byte. touch increments a key's counter in every
// row (saturating at 15); estimate reads the minimum across rows, so hash
// collisions can only over-estimate a key's frequency, never erase it.
//
// The sketch ages by halving every counter after a fixed number of touches
// (the tinyLFU "reset"), so frequency estimates reflect recent traffic and a
// seed that was hot an hour ago eventually yields its cache claim.
type cmSketch struct {
	rows    [cmRows][]byte
	mask    uint64
	touches int
	limit   int
}

const cmRows = 4

// newCMSketch sizes a sketch for a cache holding capacity entries: ~8
// counters per resident entry keeps estimate error low at this scale, and
// the aging window is 10× capacity touches.
func newCMSketch(capacity int) cmSketch {
	w := capacity * 8
	if w < 64 {
		w = 64
	}
	if w&(w-1) != 0 {
		w = 1 << bits.Len(uint(w))
	}
	s := cmSketch{mask: uint64(w - 1), limit: capacity * 10}
	if s.limit < 640 {
		s.limit = 640
	}
	for i := range s.rows {
		s.rows[i] = make([]byte, w/2)
	}
	return s
}

// rowIndex derives row i's counter index from the key hash by remixing with
// an odd multiplier per row — four near-independent hash functions from one
// 64-bit input.
func (s *cmSketch) rowIndex(h uint64, i int) uint64 {
	h = (h + uint64(i)*0x9e3779b97f4a7c15) * 0xff51afd7ed558ccd
	h ^= h >> 33
	return h & s.mask
}

func (s *cmSketch) get(row int, idx uint64) byte {
	b := s.rows[row][idx>>1]
	if idx&1 == 0 {
		return b & 0x0f
	}
	return b >> 4
}

func (s *cmSketch) set(row int, idx uint64, v byte) {
	p := &s.rows[row][idx>>1]
	if idx&1 == 0 {
		*p = (*p &^ 0x0f) | v
	} else {
		*p = (*p &^ 0xf0) | v<<4
	}
}

// touch records one access of the key hashing to h.
func (s *cmSketch) touch(h uint64) {
	for i := 0; i < cmRows; i++ {
		idx := s.rowIndex(h, i)
		if v := s.get(i, idx); v < 15 {
			s.set(i, idx, v+1)
		}
	}
	s.touches++
	if s.touches >= s.limit {
		s.age()
	}
}

// estimate returns the sketch's frequency estimate for the key hashing to h.
func (s *cmSketch) estimate(h uint64) byte {
	est := byte(15)
	for i := 0; i < cmRows; i++ {
		if v := s.get(i, s.rowIndex(h, i)); v < est {
			est = v
		}
	}
	return est
}

// age halves every counter — both nibbles of each byte at once: a right
// shift with the inter-nibble carry bits masked off.
func (s *cmSketch) age() {
	s.touches = 0
	for i := range s.rows {
		row := s.rows[i]
		for j := range row {
			row[j] = (row[j] >> 1) & 0x77
		}
	}
}
