package layout

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func demoSchema() *Schema {
	return NewSchema(
		Column{Name: "id", Kind: Uint64},
		Column{Name: "balance", Kind: Int64},
		Column{Name: "name", Kind: Bytes, Size: 16},
		Column{Name: "score", Kind: Float64},
	)
}

func TestSchemaOffsets(t *testing.T) {
	s := demoSchema()
	if s.TupleSize() != 8+8+16+8 {
		t.Fatalf("TupleSize = %d, want 40", s.TupleSize())
	}
	wantOffsets := []int{0, 8, 16, 32}
	for i, w := range wantOffsets {
		if got := s.Offset(i); got != w {
			t.Errorf("Offset(%d) = %d, want %d", i, got, w)
		}
	}
	for n, w := range []int{0, 8, 16, 32, 40} {
		if got := s.PrefixSize(n); got != w {
			t.Errorf("PrefixSize(%d) = %d, want %d", n, got, w)
		}
	}
	if s.ColumnIndex("name") != 2 || s.ColumnIndex("missing") != -1 {
		t.Error("ColumnIndex lookup broken")
	}
}

func TestFieldRoundTrip(t *testing.T) {
	s := demoSchema()
	buf := make([]byte, s.TupleSize())
	s.PutUint64(buf, 0, 42)
	s.PutInt64(buf, 1, -7)
	s.PutString(buf, 2, "alice")
	if got := s.GetUint64(buf, 0); got != 42 {
		t.Errorf("GetUint64 = %d", got)
	}
	if got := s.GetInt64(buf, 1); got != -7 {
		t.Errorf("GetInt64 = %d", got)
	}
	if got := s.GetString(buf, 2); got != "alice" {
		t.Errorf("GetString = %q", got)
	}
}

func TestPutBytesPadsAndTruncates(t *testing.T) {
	s := demoSchema()
	buf := bytes.Repeat([]byte{0xFF}, s.TupleSize())
	s.PutString(buf, 2, "bob")
	b := s.GetBytes(buf, 2)
	if !bytes.Equal(b[:3], []byte("bob")) {
		t.Fatal("prefix not written")
	}
	for _, c := range b[3:] {
		if c != 0 {
			t.Fatal("padding not zeroed")
		}
	}
	s.PutString(buf, 2, "this-name-is-longer-than-sixteen-bytes")
	if got := len(s.GetBytes(buf, 2)); got != 16 {
		t.Fatalf("column width changed to %d", got)
	}
}

func TestSchemaMarshalRoundTrip(t *testing.T) {
	s := demoSchema()
	enc := s.AppendBinary(nil)
	dec, n, err := DecodeSchema(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d bytes", n, len(enc))
	}
	if dec.TupleSize() != s.TupleSize() || dec.NumColumns() != s.NumColumns() {
		t.Fatal("shape mismatch after round trip")
	}
	for i := 0; i < s.NumColumns(); i++ {
		if dec.Column(i) != s.Column(i) {
			t.Fatalf("column %d mismatch: %+v vs %+v", i, dec.Column(i), s.Column(i))
		}
	}
}

func TestDecodeSchemaTruncated(t *testing.T) {
	enc := demoSchema().AppendBinary(nil)
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodeSchema(enc[:cut]); err == nil && cut < len(enc) {
			// Some prefixes are self-consistent (fewer columns); only the
			// header-level truncations must fail.
			if cut < 2 {
				t.Fatalf("DecodeSchema accepted a %d-byte prefix", cut)
			}
		}
	}
}

// TestDecodeSchemaRefusesBadColumns: what NewSchema panics on comes back
// from DecodeSchema as an error, since its input is a device image.
func TestDecodeSchemaRefusesBadColumns(t *testing.T) {
	col := func(name string, kind Kind, size uint32) []byte {
		b := append([]byte{byte(len(name))}, name...)
		return binary.LittleEndian.AppendUint32(append(b, byte(kind)), size)
	}
	for _, tc := range []struct {
		name string
		cols [][]byte
	}{
		{"empty name", [][]byte{col("", Uint64, 8)}},
		{"duplicate name", [][]byte{col("a", Uint64, 8), col("a", Int64, 8)}},
		{"zero-width bytes", [][]byte{col("a", Bytes, 0)}},
	} {
		enc := binary.LittleEndian.AppendUint16(nil, uint16(len(tc.cols)))
		for _, c := range tc.cols {
			enc = append(enc, c...)
		}
		if _, _, err := DecodeSchema(enc); err == nil {
			t.Errorf("%s: DecodeSchema accepted it", tc.name)
		}
	}
}

func TestQuickFieldRoundTrip(t *testing.T) {
	s := demoSchema()
	f := func(id uint64, bal int64, name []byte) bool {
		buf := make([]byte, s.TupleSize())
		s.PutUint64(buf, 0, id)
		s.PutInt64(buf, 1, bal)
		s.PutBytes(buf, 2, name)
		if s.GetUint64(buf, 0) != id || s.GetInt64(buf, 1) != bal {
			return false
		}
		want := name
		if len(want) > 16 {
			want = want[:16]
		}
		return bytes.Equal(s.GetBytes(buf, 2)[:len(want)], want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
