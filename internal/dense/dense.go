// Package dense provides the allocation-free bookkeeping primitives behind
// the hot paths of the reproduction: epoch-stamped scratch sets and arrays
// whose reset is O(1) instead of O(size).
//
// The epoch trick: each slot carries the epoch at which it was last
// written; a slot is "present" only when its stamp equals the current
// epoch, so Reset just increments the epoch.  Repeated Monte-Carlo trials
// over the same graph therefore reuse one allocation and never pay a
// clearing pass.  On the (astronomically rare) epoch wrap-around the
// stamps are cleared once to keep stale entries from resurfacing.
package dense

// Set is an epoch-stamped membership set over [0, n) with O(1) Reset.
// The zero value is ready to use after a Reset.
type Set struct {
	epoch uint32
	stamp []uint32
}

// Reset empties the set and (re)sizes it to hold members in [0, n).
//
//ringlint:noalloc
func (s *Set) Reset(n int) {
	if len(s.stamp) < n {
		s.stamp = make([]uint32, n) //ringlint:allow alloc grow-once resize; steady-state resets are stamp bumps
		s.epoch = 1
		return
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could alias, clear once
		clear(s.stamp)
		s.epoch = 1
	}
}

// Add inserts i, reporting whether it was newly added.
//
//ringlint:noalloc
func (s *Set) Add(i int) bool {
	if s.stamp[i] == s.epoch {
		return false
	}
	s.stamp[i] = s.epoch
	return true
}

// Has reports membership of i.
//
//ringlint:noalloc
func (s *Set) Has(i int) bool { return s.stamp[i] == s.epoch }

// Ints is an epoch-stamped map [0, n) → int32 with O(1) Reset; absent
// slots are distinguished from zero values by their stamp.  The zero
// value is ready to use after a Reset.
type Ints struct {
	epoch uint32
	stamp []uint32
	val   []int32
}

// Reset empties the map and (re)sizes it to keys in [0, n).
//
//ringlint:noalloc
func (m *Ints) Reset(n int) {
	if len(m.stamp) < n {
		m.stamp = make([]uint32, n) //ringlint:allow alloc grow-once resize; steady-state resets are stamp bumps
		m.val = make([]int32, n)    //ringlint:allow alloc grow-once resize; steady-state resets are stamp bumps
		m.epoch = 1
		return
	}
	m.epoch++
	if m.epoch == 0 {
		clear(m.stamp)
		m.epoch = 1
	}
}

// Set stores v at key i.
//
//ringlint:noalloc
func (m *Ints) Set(i int, v int32) {
	m.stamp[i] = m.epoch
	m.val[i] = v
}

// Get returns the value at i and whether it is present.
//
//ringlint:noalloc
func (m *Ints) Get(i int) (int32, bool) {
	if m.stamp[i] != m.epoch {
		return 0, false
	}
	return m.val[i], true
}

// Has reports whether key i is present.
//
//ringlint:noalloc
func (m *Ints) Has(i int) bool { return m.stamp[i] == m.epoch }

// At returns the value at i; it must be present.
//
//ringlint:noalloc
func (m *Ints) At(i int) int32 { return m.val[i] }
