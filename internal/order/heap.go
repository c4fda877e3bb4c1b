package order

// Item is an entry in MinHeap: a vertex keyed by a position snapshot.
type Item struct {
	Key uint64
	V   int
}

// MinHeap is the paper's jump structure B (Section VI(B)): a binary
// min-heap of (rank, vertex) pairs. Duplicate and stale entries are
// permitted; callers perform lazy deletion by validating the popped vertex.
// The zero value is an empty heap ready to use.
type MinHeap struct {
	items []Item
}

// Len reports the number of entries (including stale ones).
func (h *MinHeap) Len() int { return len(h.items) }

// Reset empties the heap, retaining capacity.
func (h *MinHeap) Reset() { h.items = h.items[:0] }

// Push inserts an entry.
func (h *MinHeap) Push(key uint64, v int) {
	h.items = append(h.items, Item{Key: key, V: v})
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].Key <= h.items[i].Key {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

// Pop removes and returns the minimum entry.
func (h *MinHeap) Pop() (Item, bool) {
	if len(h.items) == 0 {
		return Item{}, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.items) && h.items[l].Key < h.items[small].Key {
			small = l
		}
		if r < len(h.items) && h.items[r].Key < h.items[small].Key {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top, true
}
