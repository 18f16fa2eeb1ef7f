package matrix

import (
	"fmt"
	"slices"
	"strings"
)

// hyperSwitch is the layout cut-off, after GraphBLAS's hyper_switch: a
// matrix stays hypersparse while at most 2*nrows/hyperSwitch of its rows
// are non-empty and returns to it once at most nrows/hyperSwitch are.
// The factor-2 band keeps a matrix near the cut-off from flipping on
// every operation.
const hyperSwitch = 16

// Bool is a sparse Boolean matrix stored row-wise. Each stored row is
// the sorted, duplicate-free slice of column indices whose entries are
// true. The matrix picks one of two layouts from its non-empty-row count
// (see hyperSwitch):
//
//   - hypersparse (DCSR): ids lists the non-empty rows in ascending
//     order and rows[k] holds the columns of row ids[k]; every listed
//     row is non-empty;
//   - direct: ids is nil and rows[i] is row i, possibly empty; rows
//     past len(rows) are empty, so growing the matrix is O(1).
//
// A storage index into rows is called a slot. Every operation walks the
// slots of the operand it iterates, so its cost follows the non-empty
// rows, not nrows.
//
// The zero value is not usable; construct with NewBool.
type Bool struct {
	nrows, ncols int
	nvals        int

	dense bool
	ids   []uint32
	rows  [][]uint32

	// shared parallels rows and marks the slots whose backing arrays
	// may be aliased by a copy-on-write sibling (CloneCOW). A shared
	// row is copied before any in-place mutation; rows replaced
	// wholesale (SetRow, AddInPlace, ...) shed the mark with the old
	// pointer. nil when the matrix never took part in a COW clone.
	shared []bool

	// aliased reports that ids, rows and shared themselves may be
	// aliased by a sibling: a COW clone shares them in O(1), and the
	// first mutation on either side copies them (own).
	aliased bool

	// shifted counts the slots moved by out-of-order row inserts since
	// the last layout change; see makeSlot.
	shifted int
}

// NewBool returns an empty nrows x ncols Boolean matrix.
func NewBool(nrows, ncols int) *Bool {
	if nrows < 0 || ncols < 0 {
		panic(fmt.Sprintf("matrix: negative dimensions %dx%d", nrows, ncols))
	}
	return &Bool{nrows: nrows, ncols: ncols}
}

// NewBoolFromPairs builds a matrix from (row, col) coordinate pairs.
// Pairs may be unordered and may repeat.
func NewBoolFromPairs(nrows, ncols int, pairs [][2]int) *Bool {
	m := NewBool(nrows, ncols)
	for _, p := range pairs {
		m.Set(p[0], p[1])
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Bool {
	v := NewVector(n)
	v.idx = make([]uint32, n)
	for i := range v.idx {
		v.idx[i] = uint32(i)
	}
	return v.Diag()
}

// NRows returns the number of rows.
func (m *Bool) NRows() int { return m.nrows }

// NCols returns the number of columns.
func (m *Bool) NCols() int { return m.ncols }

// NVals returns the number of stored (true) entries.
func (m *Bool) NVals() int { return m.nvals }

// Empty reports whether the matrix has no true entries.
func (m *Bool) Empty() bool { return m.nvals == 0 }

// Density returns the fraction of true entries.
func (m *Bool) Density() float64 {
	if m.nrows == 0 || m.ncols == 0 {
		return 0
	}
	return float64(m.nvals) / (float64(m.nrows) * float64(m.ncols))
}

func (m *Bool) checkIndex(i, j int) {
	if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.nrows, m.ncols))
	}
}

func (m *Bool) checkRow(i int) {
	if i < 0 || i >= m.nrows {
		panic(fmt.Sprintf("matrix: row %d out of range %d", i, m.nrows))
	}
}

// rowID returns the row stored in slot k.
func (m *Bool) rowID(k int) int {
	if m.dense {
		return k
	}
	return int(m.ids[k])
}

// slot returns the slot of row i, or -1 when the matrix stores no slot
// for it.
func (m *Bool) slot(i int) int {
	if m.dense && uint(i) < uint(len(m.rows)) {
		return i
	}
	return m.hyperSlot(i)
}

// hyperSlot is slot for rows a direct-layout matrix does not store and
// for hypersparse matrices.
func (m *Bool) hyperSlot(i int) int {
	if m.dense {
		return -1
	}
	if k, ok := slices.BinarySearch(m.ids, uint32(i)); ok {
		return k
	}
	return -1
}

// row returns the columns of row i (nil when the row is empty).
func (m *Bool) row(i int) []uint32 {
	if m.dense && uint(i) < uint(len(m.rows)) {
		return m.rows[i]
	}
	return m.hyperRow(i)
}

// hyperRow is row's slow path, kept out of line so row inlines.
//
//go:noinline
func (m *Bool) hyperRow(i int) []uint32 {
	if k := m.hyperSlot(i); k >= 0 {
		return m.rows[k]
	}
	return nil
}

// own gives m private slot arrays after a COW clone left them aliased.
// The sibling still holds every row, so all non-empty rows come out
// marked shared.
func (m *Bool) own() {
	if !m.aliased {
		return
	}
	m.ids = slices.Clone(m.ids)
	m.rows = slices.Clone(m.rows)
	m.shared = make([]bool, len(m.rows))
	for k, row := range m.rows {
		m.shared[k] = len(row) > 0
	}
	m.aliased = false
}

// ensureOwned copies the row in slot k when its backing array may be
// shared with a COW sibling, so in-place mutation cannot corrupt the
// other matrix.
func (m *Bool) ensureOwned(k int) {
	if m.shared != nil && m.shared[k] {
		m.rows[k] = slices.Clone(m.rows[k])
		m.shared[k] = false
	}
}

// setSlot stores a freshly allocated (or empty) row in slot k, which no
// longer aliases a COW sibling.
func (m *Bool) setSlot(k int, row []uint32) {
	m.nvals += len(row) - len(m.rows[k])
	m.rows[k] = row
	if m.shared != nil {
		m.shared[k] = false
	}
}

// makeSlot returns the slot of row i, first inserting an empty slot
// into a hypersparse matrix that lacks it; the caller must fill that
// slot. A matrix that outgrows the hypersparse cut-off, or whose
// out-of-order inserts have shifted more than nrows slots, switches to
// direct indexing, so building a matrix in any row order costs
// amortized O(1) per new row.
func (m *Bool) makeSlot(i int) int {
	if m.dense && !m.aliased && i < len(m.rows) {
		return i
	}
	return m.insertSlot(i)
}

func (m *Bool) insertSlot(i int) int {
	m.own()
	if m.dense {
		if grow := i + 1 - len(m.rows); grow > 0 {
			m.rows = append(m.rows, make([][]uint32, grow)...)
			if m.shared != nil {
				m.shared = append(m.shared, make([]bool, grow)...)
			}
		}
		return i
	}
	k, ok := slices.BinarySearch(m.ids, uint32(i))
	if ok {
		return k
	}
	m.shifted += len(m.ids) - k
	if (len(m.ids)+1)*hyperSwitch > 2*m.nrows || m.shifted > m.nrows {
		m.toDense()
		return i
	}
	m.ids = append(m.ids, 0)
	m.rows = append(m.rows, nil)
	copy(m.ids[k+1:], m.ids[k:])
	copy(m.rows[k+1:], m.rows[k:])
	m.ids[k], m.rows[k] = uint32(i), nil
	if m.shared != nil {
		m.shared = slices.Insert(m.shared, k, false)
	}
	return k
}

// dropSlot removes the now-empty slot k of a hypersparse matrix.
func (m *Bool) dropSlot(k int) {
	m.ids = slices.Delete(m.ids, k, k+1)
	m.rows = slices.Delete(m.rows, k, k+1)
	if m.shared != nil {
		m.shared = slices.Delete(m.shared, k, k+1)
	}
}

// push appends row i, above every row listed so far, to a hypersparse
// matrix under construction; the row must be non-empty by the time
// conform settles the layout.
func (m *Bool) push(i int, row []uint32) {
	m.ids = append(m.ids, uint32(i))
	m.rows = append(m.rows, row)
	m.nvals += len(row)
}

// withSlotsOf returns an empty nrows x ncols matrix with a's slots, for
// a result whose slot k is computed from a's slot k; finish settles it
// once the slots are filled.
func withSlotsOf(a *Bool, nrows, ncols int) *Bool {
	return &Bool{nrows: nrows, ncols: ncols, dense: a.dense, ids: slices.Clone(a.ids), rows: make([][]uint32, len(a.rows))}
}

// finish counts the entries of a matrix built by withSlotsOf, drops its
// empty hypersparse slots and picks its layout.
func (m *Bool) finish() *Bool {
	nonEmpty := 0
	for _, row := range m.rows {
		if len(row) > 0 {
			nonEmpty++
			m.nvals += len(row)
		}
	}
	if !m.dense {
		m.compact()
	}
	m.conform(nonEmpty)
	return m
}

// conform picks the layout for a matrix with nonEmpty non-empty rows.
// The caller must own the slot arrays (see own).
func (m *Bool) conform(nonEmpty int) {
	switch {
	case !m.dense && nonEmpty*hyperSwitch > 2*m.nrows:
		m.toDense()
	case m.dense && nonEmpty*hyperSwitch <= m.nrows:
		m.toHyper()
	}
}

func (m *Bool) toDense() {
	rows := make([][]uint32, m.nrows)
	var shared []bool
	if m.shared != nil {
		shared = make([]bool, m.nrows)
	}
	for k, i := range m.ids {
		rows[i] = m.rows[k]
		if shared != nil {
			shared[i] = m.shared[k]
		}
	}
	m.dense, m.ids, m.rows, m.shared, m.shifted = true, nil, rows, shared, 0
}

func (m *Bool) toHyper() {
	var ids []uint32
	var rows [][]uint32
	var shared []bool
	for i, row := range m.rows {
		if len(row) == 0 {
			continue
		}
		ids = append(ids, uint32(i))
		rows = append(rows, row)
		if m.shared != nil {
			shared = append(shared, m.shared[i])
		}
	}
	m.dense, m.ids, m.rows, m.shared, m.shifted = false, ids, rows, shared, 0
}

// compact drops the empty slots of an owned hypersparse matrix in place.
func (m *Bool) compact() {
	w := 0
	for k, row := range m.rows {
		if len(row) > 0 {
			m.ids[w], m.rows[w] = m.ids[k], row
			if m.shared != nil {
				m.shared[w] = m.shared[k]
			}
			w++
		}
	}
	clear(m.rows[w:])
	m.ids, m.rows = m.ids[:w], m.rows[:w]
	if m.shared != nil {
		m.shared = m.shared[:w]
	}
}

// CloneCOW returns a copy-on-write clone in O(1): the clone shares the
// slot arrays and every row's backing array with m until either side
// mutates. Both matrices are marked, so in-place mutation on either
// side copies first and the other side observes no change.
func (m *Bool) CloneCOW() *Bool {
	m.aliased = true
	return m.CloneFrozen()
}

// CloneFrozen returns a copy-on-write clone of a matrix that will
// never be mutated again. Only the clone is marked — m itself is not
// written at all, so a published snapshot stays bit-for-bit immutable
// while the clone copies lazily on its first write. The caller owns
// the freeze promise: mutating m after CloneFrozen corrupts the clone
// through the aliased rows (use CloneCOW when both sides stay mutable).
func (m *Bool) CloneFrozen() *Bool {
	c := *m
	c.aliased = true
	return &c
}

// Set makes entry (i, j) true.
func (m *Bool) Set(i, j int) {
	m.checkIndex(i, j)
	k := m.makeSlot(i)
	m.ensureOwned(k)
	row := m.rows[k]
	c := uint32(j)
	p, ok := slices.BinarySearch(row, c)
	if ok {
		return
	}
	row = append(row, 0)
	copy(row[p+1:], row[p:])
	row[p] = c
	m.rows[k] = row
	m.nvals++
}

// Unset makes entry (i, j) false.
func (m *Bool) Unset(i, j int) {
	m.checkIndex(i, j)
	k := m.slot(i)
	if k < 0 {
		return
	}
	p, ok := slices.BinarySearch(m.rows[k], uint32(j))
	if !ok {
		return
	}
	m.own()
	m.ensureOwned(k)
	m.rows[k] = slices.Delete(m.rows[k], p, p+1)
	m.nvals--
	if len(m.rows[k]) == 0 && !m.dense {
		m.dropSlot(k)
	}
}

// Get reports whether entry (i, j) is true.
func (m *Bool) Get(i, j int) bool {
	m.checkIndex(i, j)
	_, ok := slices.BinarySearch(m.row(i), uint32(j))
	return ok
}

// Row returns the sorted column indices of row i. The returned slice is
// owned by the matrix and must not be modified.
func (m *Bool) Row(i int) []uint32 {
	m.checkRow(i)
	return m.row(i)
}

// SetRow replaces row i with the given sorted, duplicate-free column
// indices. The slice is taken over by the matrix.
func (m *Bool) SetRow(i int, cols []uint32) {
	m.checkRow(i)
	for k := 0; k < len(cols); k++ {
		if int(cols[k]) >= m.ncols {
			panic(fmt.Sprintf("matrix: column %d out of range %d", cols[k], m.ncols))
		}
		if k > 0 && cols[k-1] >= cols[k] {
			panic("matrix: SetRow requires sorted duplicate-free columns")
		}
	}
	if len(cols) > 0 {
		m.setSlot(m.makeSlot(i), cols)
		return
	}
	if k := m.slot(i); k >= 0 {
		m.own()
		m.setSlot(k, nil)
		if !m.dense {
			m.dropSlot(k)
		}
	}
}

// Clone returns a deep copy of the matrix. The copied rows share one
// allocation, each capped at its length so that growing one row
// reallocates it instead of overwriting its neighbour.
func (m *Bool) Clone() *Bool {
	c := &Bool{nrows: m.nrows, ncols: m.ncols, nvals: m.nvals, dense: m.dense,
		ids: slices.Clone(m.ids), rows: make([][]uint32, len(m.rows))}
	back := make([]uint32, 0, m.nvals)
	for k, row := range m.rows {
		if len(row) > 0 {
			back = append(back, row...)
			c.rows[k] = back[len(back)-len(row) : len(back) : len(back)]
		}
	}
	return c
}

// Equal reports whether the two matrices have the same shape and entries.
func (m *Bool) Equal(o *Bool) bool {
	if m.nrows != o.nrows || m.ncols != o.ncols || m.nvals != o.nvals {
		return false
	}
	// Equal counts make "every row of m appears in o" sufficient.
	for k, row := range m.rows {
		if len(row) > 0 && !slices.Equal(row, o.row(m.rowID(k))) {
			return false
		}
	}
	return true
}

// Pairs returns all true entries as (row, col) pairs in row-major order.
func (m *Bool) Pairs() [][2]int {
	out := make([][2]int, 0, m.nvals)
	m.Iterate(func(i, j int) bool {
		out = append(out, [2]int{i, j})
		return true
	})
	return out
}

// Iterate calls fn for every true entry in row-major order. Iteration
// stops early when fn returns false.
func (m *Bool) Iterate(fn func(i, j int) bool) {
	for k, row := range m.rows {
		i := m.rowID(k)
		for _, c := range row {
			if !fn(i, int(c)) {
				return
			}
		}
	}
}

// Clear removes all entries, keeping the shape.
func (m *Bool) Clear() {
	*m = Bool{nrows: m.nrows, ncols: m.ncols}
}

// Resize grows the matrix to at least nrows x ncols in O(1), keeping
// entries. Shrinking is not supported and panics.
func (m *Bool) Resize(nrows, ncols int) {
	if nrows < m.nrows || ncols < m.ncols {
		panic("matrix: Resize cannot shrink")
	}
	m.nrows, m.ncols = nrows, ncols
}

// String renders small matrices as a 0/1 grid; large matrices are
// summarized. Intended for debugging and test failure messages.
func (m *Bool) String() string {
	if m.nrows > 16 || m.ncols > 32 {
		return fmt.Sprintf("Bool{%dx%d, %d vals}", m.nrows, m.ncols, m.nvals)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Bool %dx%d:\n", m.nrows, m.ncols)
	for i := 0; i < m.nrows; i++ {
		row := m.row(i)
		for j := 0; j < m.ncols; j++ {
			if len(row) > 0 && int(row[0]) == j {
				b.WriteByte('1')
				row = row[1:]
			} else {
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// validate checks internal invariants; used by tests.
func (m *Bool) validate() error {
	if m.shared != nil && len(m.shared) != len(m.rows) {
		return fmt.Errorf("shared bitmap length %d does not match %d slots", len(m.shared), len(m.rows))
	}
	if m.dense && (m.ids != nil || len(m.rows) > m.nrows) {
		return fmt.Errorf("direct layout with %d ids and %d slots for %d rows", len(m.ids), len(m.rows), m.nrows)
	}
	if !m.dense && len(m.ids) != len(m.rows) {
		return fmt.Errorf("hypersparse layout with %d ids but %d slots", len(m.ids), len(m.rows))
	}
	n := 0
	for k, row := range m.rows {
		i := m.rowID(k)
		if !m.dense && (i >= m.nrows || (k > 0 && m.ids[k-1] >= m.ids[k]) || len(row) == 0) {
			return fmt.Errorf("slot %d: row id %d unsorted, out of range or empty", k, i)
		}
		for p, c := range row {
			if int(c) >= m.ncols {
				return fmt.Errorf("row %d: column %d out of range %d", i, c, m.ncols)
			}
			if p > 0 && row[p-1] >= c {
				return fmt.Errorf("row %d: columns not strictly sorted at %d", i, p)
			}
		}
		n += len(row)
	}
	if n != m.nvals {
		return fmt.Errorf("nvals %d does not match stored entries %d", m.nvals, n)
	}
	return nil
}
