package matrix

import "fmt"

// Add returns the element-wise OR a + b.
func Add(a, b *Bool) *Bool {
	checkSameShape("Add", a, b)
	out := a.Clone()
	AddInPlace(out, b)
	return out
}

// AddInPlace ORs b into a and reports whether a changed. It walks b's
// non-empty rows only; rows a still shares with b through a COW clone
// are skipped without a comparison, so folding a grown clone back into
// its origin costs the rows that actually changed.
func AddInPlace(a, b *Bool) bool {
	checkSameShape("AddInPlace", a, b)
	if b.nvals == 0 || sameSlots(a, b) {
		return false
	}
	if a.nvals == 0 {
		*a = *b.Clone()
		return true
	}
	changed := false
	for kb, rb := range b.rows {
		if len(rb) == 0 {
			continue
		}
		i := b.rowID(kb)
		ra := a.row(i)
		if sameRow(ra, rb) || containsAll(ra, rb) {
			continue
		}
		a.setSlot(a.makeSlot(i), unionRows(ra, rb))
		changed = true
	}
	return changed
}

// sameSlots reports whether a and b still alias one set of slot
// arrays, which a COW clone shares until either side mutates: their
// entries are then identical.
func sameSlots(a, b *Bool) bool {
	return len(a.rows) > 0 && len(a.rows) == len(b.rows) && &a.rows[0] == &b.rows[0]
}

// sameRow reports whether two rows are one backing array.
func sameRow(a, b []uint32) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// Sub returns the set difference a \ b: entries of a not present in b.
// It walks a's non-empty rows and probes b.
func Sub(a, b *Bool) *Bool {
	checkSameShape("Sub", a, b)
	out := withSlotsOf(a, a.nrows, a.ncols)
	for k, ra := range a.rows {
		if len(ra) > 0 {
			out.rows[k] = diffRows(ra, b.row(a.rowID(k)))
		}
	}
	return out.finish()
}

// SubInPlace removes the entries of b from a and reports whether a changed.
func SubInPlace(a, b *Bool) bool {
	checkSameShape("SubInPlace", a, b)
	changed := false
	nonEmpty := 0
	for k, ra := range a.rows {
		if len(ra) == 0 {
			continue
		}
		if row := diffRows(ra, b.row(a.rowID(k))); len(row) != len(ra) {
			a.own()
			a.setSlot(k, row)
			changed = true
		}
		if len(a.rows[k]) > 0 {
			nonEmpty++
		}
	}
	if changed {
		if !a.dense {
			a.compact()
		}
		a.conform(nonEmpty)
	}
	return changed
}

// Intersect returns the element-wise AND of a and b.
func Intersect(a, b *Bool) *Bool {
	checkSameShape("Intersect", a, b)
	out := withSlotsOf(a, a.nrows, a.ncols)
	for k, ra := range a.rows {
		if len(ra) > 0 {
			out.rows[k] = intersectRows(ra, b.row(a.rowID(k)))
		}
	}
	return out.finish()
}

// Transpose returns the transposed matrix.
func Transpose(a *Bool) *Bool {
	out := NewBool(a.ncols, a.nrows)
	// slotOf[j] counts column j's entries, then holds its output slot.
	slotOf := make([]int, a.ncols)
	for _, row := range a.rows {
		for _, c := range row {
			slotOf[c]++
		}
	}
	back := make([]uint32, a.nvals)
	off := 0
	for j, n := range slotOf {
		if n > 0 {
			slotOf[j] = len(out.rows)
			out.push(j, back[off:off:off+n])
			off += n
		}
	}
	for k, row := range a.rows {
		for _, c := range row {
			s := slotOf[c]
			out.rows[s] = append(out.rows[s], uint32(a.rowID(k)))
		}
	}
	out.nvals = a.nvals
	out.conform(len(out.rows))
	return out
}

// Kron returns the Kronecker product a ⊗ b: a (ra x ca), b (rb x cb)
// yield an (ra*rb) x (ca*cb) matrix with blocks b wherever a is true.
func Kron(a, b *Bool) *Bool {
	rb, cb := b.nrows, b.ncols
	out := NewBool(a.nrows*rb, a.ncols*cb)
	for ka, rowA := range a.rows {
		if len(rowA) == 0 {
			continue
		}
		for kb, rowB := range b.rows {
			if len(rowB) == 0 {
				continue
			}
			dst := make([]uint32, 0, len(rowA)*len(rowB))
			for _, j1 := range rowA {
				base := j1 * uint32(cb)
				for _, j2 := range rowB {
					dst = append(dst, base+j2)
				}
			}
			out.push(a.rowID(ka)*rb+b.rowID(kb), dst)
		}
	}
	out.conform(len(out.rows))
	return out
}

// ExtractRows returns a copy of a containing only the rows listed in set;
// all other rows are empty.
func ExtractRows(a *Bool, set *Vector) *Bool {
	if set.n != a.nrows {
		panic(fmt.Sprintf("matrix: ExtractRows vector size %d does not match rows %d", set.n, a.nrows))
	}
	out := NewBool(a.nrows, a.ncols)
	for _, i := range set.idx {
		if row := a.row(int(i)); len(row) > 0 {
			out.push(int(i), append([]uint32(nil), row...))
		}
	}
	out.conform(len(out.rows))
	return out
}

func checkSameShape(op string, a, b *Bool) {
	if a.nrows != b.nrows || a.ncols != b.ncols {
		panic(fmt.Sprintf("matrix: %s shape mismatch %dx%d vs %dx%d", op, a.nrows, a.ncols, b.nrows, b.ncols))
	}
}

// unionRows merges two sorted duplicate-free slices into a new slice.
func unionRows(a, b []uint32) []uint32 {
	if len(a) == 0 {
		return append([]uint32(nil), b...)
	}
	if len(b) == 0 {
		return append([]uint32(nil), a...)
	}
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// diffRows returns a \ b for sorted duplicate-free slices.
func diffRows(a, b []uint32) []uint32 {
	if len(a) == 0 {
		return nil
	}
	if len(b) == 0 {
		return append([]uint32(nil), a...)
	}
	out := make([]uint32, 0, len(a))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			j++
		default:
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	if len(out) == 0 {
		return nil
	}
	return out
}

// intersectRows returns a ∩ b for sorted duplicate-free slices.
func intersectRows(a, b []uint32) []uint32 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make([]uint32, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// containsAll reports whether sorted slice a contains every element of b.
func containsAll(a, b []uint32) bool {
	if len(b) > len(a) {
		return false
	}
	i := 0
	for _, v := range b {
		for i < len(a) && a[i] < v {
			i++
		}
		if i >= len(a) || a[i] != v {
			return false
		}
		i++
	}
	return true
}
