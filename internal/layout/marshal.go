package layout

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// AppendBinary serializes the schema for the persistent catalog.
func (s *Schema) AppendBinary(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s.cols)))
	for _, c := range s.cols {
		if len(c.Name) > 255 {
			panic("layout: column name too long: " + c.Name)
		}
		dst = append(dst, byte(len(c.Name)))
		dst = append(dst, c.Name...)
		dst = append(dst, byte(c.Kind))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(c.Size))
	}
	return dst
}

// DecodeSchema parses a schema serialized by AppendBinary, returning the
// schema and the number of bytes consumed.
func DecodeSchema(src []byte) (*Schema, int, error) {
	if len(src) < 2 {
		return nil, 0, errors.New("layout: truncated schema header")
	}
	n := int(binary.LittleEndian.Uint16(src))
	pos := 2
	cols := make([]Column, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		if pos >= len(src) {
			return nil, 0, fmt.Errorf("layout: truncated schema at column %d", i)
		}
		nameLen := int(src[pos])
		pos++
		if pos+nameLen+5 > len(src) {
			return nil, 0, fmt.Errorf("layout: truncated schema at column %d", i)
		}
		name := string(src[pos : pos+nameLen])
		pos += nameLen
		kind := Kind(src[pos])
		pos++
		size := int(binary.LittleEndian.Uint32(src[pos:]))
		pos += 4
		// What NewSchema would refuse by panicking is a corrupt image here.
		if name == "" || seen[name] || kind == Bytes && size == 0 {
			return nil, 0, fmt.Errorf("layout: schema column %d (%q): empty, duplicate or zero-width", i, name)
		}
		seen[name] = true
		cols = append(cols, Column{Name: name, Kind: kind, Size: size})
	}
	return NewSchema(cols...), pos, nil
}
