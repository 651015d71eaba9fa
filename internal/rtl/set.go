package rtl

import "math/bits"

// Set is a dense bit set over small non-negative numbers: registers
// (RegSet) or layout positions (BlockSet). It is the repository's one
// bit-set type — the states the dataflow kernel (Solve) works on are its
// word slices, and SetOver views one of them as a set. The zero value
// is empty but has no capacity; create sets with NewSet.
type Set[T ~uint16 | ~int] struct {
	words []uint64
}

// RegSet is a set of registers.
type RegSet = Set[Reg]

// BlockSet is a set of layout positions.
type BlockSet = Set[int]

// NewSet returns an empty set able to hold [0, n).
func NewSet[T ~uint16 | ~int](n int) Set[T] {
	return Set[T]{words: make([]uint64, (n+63)/64)}
}

// NewRegSet returns an empty set able to hold registers [0, n).
func NewRegSet(n int) RegSet { return NewSet[Reg](n) }

// SetOver returns the set whose members are the bits of words, which it
// shares: a kernel state read as a set. Adding a member beyond the
// words moves the set to storage of its own.
func SetOver[T ~uint16 | ~int](words []uint64) Set[T] {
	return Set[T]{words: words[:len(words):len(words)]}
}

// Words returns the set's storage, shared: x is a member when bit x%64
// of word x/64 is set, and words beyond the slice are empty. A client
// that keeps many sets in one array of its own copies them from here.
func (s Set[T]) Words() []uint64 { return s.words }

// Add inserts x, growing the set if necessary.
func (s *Set[T]) Add(x T) {
	w := int(x) / 64
	for w >= len(s.words) {
		s.words = append(s.words, 0)
	}
	s.words[w] |= 1 << (uint(x) % 64)
}

// Remove deletes x.
func (s *Set[T]) Remove(x T) {
	w := int(x) / 64
	if w < len(s.words) {
		s.words[w] &^= 1 << (uint(x) % 64)
	}
}

// Has reports whether the set contains x.
func (s *Set[T]) Has(x T) bool {
	w := int(x) / 64
	return w < len(s.words) && s.words[w]&(1<<(uint(x)%64)) != 0
}

// UnionWith adds every element of t to s and reports whether s changed.
func (s *Set[T]) UnionWith(t Set[T]) bool {
	for len(s.words) < len(t.words) {
		s.words = append(s.words, 0)
	}
	changed := false
	for i, w := range t.words {
		if nw := s.words[i] | w; nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// SubsetOf reports whether every element of s is in t.
func (s Set[T]) SubsetOf(t Set[T]) bool {
	for i, w := range s.words {
		if i < len(t.words) {
			w &^= t.words[i]
		}
		if w != 0 {
			return false
		}
	}
	return true
}

// Copy returns an independent copy of the set.
func (s Set[T]) Copy() Set[T] {
	return Set[T]{words: append([]uint64(nil), s.words...)}
}

// CopyFrom makes s a copy of t in s's own storage, which is reused when
// it is large enough: the scratch set a phase walks every block with.
func (s *Set[T]) CopyFrom(t Set[T]) {
	s.words = append(s.words[:0], t.words...)
}

// Equal reports whether s and t contain the same elements, regardless
// of capacity.
func (s Set[T]) Equal(t Set[T]) bool {
	a, b := s.words, t.words
	if len(a) < len(b) {
		a, b = b, a
	}
	for i, w := range b {
		if a[i] != w {
			return false
		}
	}
	for _, w := range a[len(b):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of elements.
func (s Set[T]) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach invokes fn for every element of the set, in increasing
// order.
func (s Set[T]) ForEach(fn func(T)) {
	for i, w := range s.words {
		for ; w != 0; w &= w - 1 {
			fn(T(i*64 + bits.TrailingZeros64(w)))
		}
	}
}
