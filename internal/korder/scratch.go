package korder

// Epoch-stamped scratch arrays: per-update working state (deg*, candidate
// flags, queue membership, ...) is reset in O(1) by bumping an epoch counter
// instead of clearing arrays, keeping per-update cost proportional to the
// number of vertices actually touched.

// sparseFlags is an epoch-stamped boolean array.
type sparseFlags struct {
	ep  []uint64
	cur uint64
}

func newSparseFlags(n int) *sparseFlags {
	return &sparseFlags{ep: make([]uint64, n), cur: 1}
}

func (s *sparseFlags) grow(n int) {
	for len(s.ep) < n {
		s.ep = append(s.ep, 0)
	}
}

func (s *sparseFlags) reset()         { s.cur++ }
func (s *sparseFlags) set(v int)      { s.ep[v] = s.cur }
func (s *sparseFlags) clear(v int)    { s.ep[v] = 0 }
func (s *sparseFlags) has(v int) bool { return s.ep[v] == s.cur }

// sparseInts is an epoch-stamped integer array defaulting to zero.
type sparseInts struct {
	val []int
	ep  []uint64
	cur uint64
}

func newSparseInts(n int) *sparseInts {
	return &sparseInts{val: make([]int, n), ep: make([]uint64, n), cur: 1}
}

func (s *sparseInts) grow(n int) {
	for len(s.ep) < n {
		s.ep = append(s.ep, 0)
		s.val = append(s.val, 0)
	}
}

func (s *sparseInts) reset() { s.cur++ }

func (s *sparseInts) get(v int) int {
	if s.ep[v] == s.cur {
		return s.val[v]
	}
	return 0
}

func (s *sparseInts) set(v, x int) {
	s.ep[v] = s.cur
	s.val[v] = x
}

func (s *sparseInts) add(v, d int) int {
	if s.ep[v] != s.cur {
		s.ep[v] = s.cur
		s.val[v] = 0
	}
	s.val[v] += d
	return s.val[v]
}
