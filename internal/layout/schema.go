// Package layout defines table schemas and the fixed-width tuple encoding
// used by the engine. Tuples are flat byte strings with statically computed
// field offsets, so field reads and in-place field updates translate directly
// into sub-tuple loads and stores on the simulated NVM — which is what makes
// the paper's partial-update write-amplification effects observable.
package layout

import (
	"encoding/binary"
	"fmt"
)

// Kind is a column type.
type Kind uint8

const (
	// Int64 is a signed 64-bit integer (8 bytes).
	Int64 Kind = iota
	// Uint64 is an unsigned 64-bit integer (8 bytes).
	Uint64
	// Float64 is an IEEE-754 double (8 bytes).
	Float64
	// Bytes is a fixed-width opaque byte string (Size bytes). Strings are
	// stored as Bytes, zero-padded.
	Bytes
)

func (k Kind) String() string {
	switch k {
	case Int64:
		return "int64"
	case Uint64:
		return "uint64"
	case Float64:
		return "float64"
	case Bytes:
		return "bytes"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Column describes one fixed-width column.
type Column struct {
	Name string
	Kind Kind
	// Size is the width in bytes; ignored (forced to 8) for numeric kinds.
	Size int
}

// Schema is an ordered set of columns with precomputed offsets.
type Schema struct {
	cols    []Column
	offsets []int
	size    int
	byName  map[string]int
}

// NewSchema builds a schema from columns. It panics on duplicate or empty
// column names or non-positive Bytes sizes, since schemas are static program
// data.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{byName: make(map[string]int, len(cols))}
	off := 0
	for _, c := range cols {
		if c.Name == "" {
			panic("layout: empty column name")
		}
		if _, dup := s.byName[c.Name]; dup {
			panic("layout: duplicate column " + c.Name)
		}
		if c.Kind != Bytes {
			c.Size = 8
		} else if c.Size <= 0 {
			panic("layout: bytes column " + c.Name + " needs a positive size")
		}
		s.byName[c.Name] = len(s.cols)
		s.cols = append(s.cols, c)
		s.offsets = append(s.offsets, off)
		off += c.Size
	}
	s.size = off
	return s
}

// TupleSize is the encoded width of one tuple in bytes.
func (s *Schema) TupleSize() int { return s.size }

// NumColumns returns the column count.
func (s *Schema) NumColumns() int { return len(s.cols) }

// Column returns column i.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// Offset returns the byte offset of column i within the tuple.
func (s *Schema) Offset(i int) int { return s.offsets[i] }

// PrefixSize returns the width of columns [0, n): the bytes a read of the
// tuple's first n columns takes. PrefixSize(NumColumns()) is TupleSize().
func (s *Schema) PrefixSize(n int) int {
	if n == len(s.cols) {
		return s.size
	}
	return s.offsets[n]
}

// ColumnIndex returns the index of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// --- field accessors over raw tuple bytes ---

// GetInt64 reads column col from an encoded tuple.
func (s *Schema) GetInt64(tuple []byte, col int) int64 {
	return int64(binary.LittleEndian.Uint64(tuple[s.offsets[col]:]))
}

// PutInt64 writes column col in an encoded tuple.
func (s *Schema) PutInt64(tuple []byte, col int, v int64) {
	binary.LittleEndian.PutUint64(tuple[s.offsets[col]:], uint64(v))
}

// GetUint64 reads column col as uint64.
func (s *Schema) GetUint64(tuple []byte, col int) uint64 {
	return binary.LittleEndian.Uint64(tuple[s.offsets[col]:])
}

// PutUint64 writes column col as uint64.
func (s *Schema) PutUint64(tuple []byte, col int, v uint64) {
	binary.LittleEndian.PutUint64(tuple[s.offsets[col]:], v)
}

// GetBytes returns the raw bytes of column col (a sub-slice of tuple).
func (s *Schema) GetBytes(tuple []byte, col int) []byte {
	off := s.offsets[col]
	return tuple[off : off+s.cols[col].Size]
}

// PutBytes copies v into column col, zero-padding or truncating to width.
func (s *Schema) PutBytes(tuple []byte, col int, v []byte) {
	off := s.offsets[col]
	w := s.cols[col].Size
	n := copy(tuple[off:off+w], v)
	for ; n < w; n++ {
		tuple[off+n] = 0
	}
}

// GetString reads column col as a string, trimming zero padding.
func (s *Schema) GetString(tuple []byte, col int) string {
	b := s.GetBytes(tuple, col)
	end := len(b)
	for end > 0 && b[end-1] == 0 {
		end--
	}
	return string(b[:end])
}

// PutString writes a string into column col.
func (s *Schema) PutString(tuple []byte, col int, v string) {
	s.PutBytes(tuple, col, []byte(v))
}
