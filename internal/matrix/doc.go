// Package matrix implements the sparse Boolean linear algebra the
// multiple-source CFPQ algorithms are expressed in.
//
// It is a small, dependency-free stand-in for the slice of the GraphBLAS
// API (SuiteSparse:GraphBLAS) used by the paper: Boolean matrix
// multiplication, element-wise addition (logical OR), set difference,
// transposition, Kronecker product, and the column reduction that backs
// the paper's getDst function (reduce_vector in pygraphblas).
//
// # Representation
//
// Bool stores a sparse Boolean matrix row-wise: each non-empty row is a
// sorted, duplicate-free slice of column indices. Like SuiteSparse, it
// picks the row layout from its own non-empty-row count (hyperSwitch):
// while few rows are non-empty it is hypersparse (DCSR) — a sorted list
// of the non-empty row ids next to their rows — so NewBool and Resize
// are O(1) and every operation walks only the rows that hold entries;
// past the cut-off it keeps a row header of nrows entries for O(1) row
// lookup. Either way the CFPQ algorithms are row-driven: multiplication
// unions rows of the right operand selected by the left operand's rows.
//
// Kernel is the one multiplication kernel: it polls its context between
// row blocks, and optionally splits the left operand's rows across
// workers and ORs dense right operands as bitsets. Mul multiplies with
// the zero Kernel and no cancellation.
//
// CloneCOW and CloneFrozen share the storage of the source in O(1);
// whichever side mutates first copies the row index, and rows stay
// shared one by one until written.
//
// Vector stores a sparse Boolean vector as a sorted index slice and
// doubles as the representation of vertex sets (query source sets,
// getDst results, diagonal matrices).
//
// # Errors
//
// Dimension mismatches are programming errors, not runtime conditions, so
// operations panic with a descriptive message instead of returning an
// error, mirroring the behaviour of GraphBLAS bindings and gonum.
//
// Matrices are not safe for concurrent mutation. Read-only sharing is
// safe; Kernel.Workers exploits this to multiply row blocks in parallel.
package matrix
