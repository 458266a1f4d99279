package core

import (
	"bytes"
	"fmt"
	"testing"

	"falcon/internal/cc"
	"falcon/internal/index"
	"falcon/internal/layout"
	"falcon/internal/pmem"
)

// colsSchema spreads a tuple over four lines of its slot: k, s and a share
// line 0 with the 16 B header, c sits in line 3 (payload byte 216 is slot byte
// 232). s carries a secondary index.
func colsSchema() *layout.Schema {
	return layout.NewSchema(
		layout.Column{Name: "k", Kind: layout.Uint64},
		layout.Column{Name: "s", Kind: layout.Uint64},
		layout.Column{Name: "a", Kind: layout.Int64},
		layout.Column{Name: "pad", Kind: layout.Bytes, Size: 192},
		layout.Column{Name: "c", Kind: layout.Int64},
	)
}

const colsA, colsC = 2, 4 // a is inside a three-column bound, c outside it

// colsRow is key k's row in generation gen: every byte differs from the same
// byte of the other keys and generations, and the key columns are k and k<<8.
func colsRow(s *layout.Schema, k uint64, gen int) []byte {
	row := make([]byte, s.TupleSize())
	for i := range row {
		row[i] = byte(int(k)*31 + gen*7 + i)
	}
	s.PutUint64(row, 0, k)
	s.PutUint64(row, 1, k<<8)
	return row
}

// pastSentinel returns the index of the first byte of b that is not the
// sentinel 0xEE a bounded read's buffer is filled with, or -1.
func pastSentinel(b []byte) int {
	for i, v := range b {
		if v != 0xEE {
			return i
		}
	}
	return -1
}

// checkReadCols reads every key of want with every column bound, ReadCols and
// (unless ro) ReadColsForUpdate, each into a buffer filled with a sentinel:
// the bound's bytes must equal want's and every byte past the bound must still
// be the sentinel.
func checkReadCols(t *testing.T, name string, tx *Txn, tb *Table, want map[uint64][]byte, ro bool) {
	t.Helper()
	s := tb.Schema()
	dst := make([]byte, s.TupleSize())
	reads := []func(k uint64, cols int) error{
		func(k uint64, cols int) error { return tx.ReadCols(tb, k, cols, dst) },
	}
	if !ro {
		reads = append(reads, func(k uint64, cols int) error { return tx.ReadColsForUpdate(tb, k, cols, dst) })
	}
	for ri, read := range reads {
		for k := uint64(1); k <= uint64(len(want)); k++ {
			for cols := 1; cols <= s.NumColumns(); cols++ {
				for i := range dst {
					dst[i] = 0xEE
				}
				if err := read(k, cols); err != nil {
					t.Fatalf("%s: read %d of key %d, %d columns: %v", name, ri, k, cols, err)
				}
				n := s.PrefixSize(cols)
				if !bytes.Equal(dst[:n], want[k][:n]) {
					t.Fatalf("%s: read %d of key %d, %d columns: bytes differ from the row's first %d", name, ri, k, cols, n)
				}
				if i := pastSentinel(dst[n:]); i >= 0 {
					t.Fatalf("%s: read %d of key %d, %d columns wrote payload byte %d, past its bound %d", name, ri, k, cols, n+i, n)
				}
			}
		}
	}
}

// checkScanCols scans the table by its primary and its secondary index, whole
// and then with a three-column bound: fn must get exactly each row of want,
// and then exactly its first PrefixSize(3) bytes, in key order.
func checkScanCols(t *testing.T, name string, tx *Txn, tb *Table, want map[uint64][]byte) {
	t.Helper()
	s := tb.Schema()
	for _, cols := range []int{s.NumColumns(), 3} {
		n := s.PrefixSize(cols)
		for _, secondary := range []bool{false, true} {
			next := uint64(1)
			fn := func(key uint64, payload []byte) bool {
				if secondary {
					key >>= 8
				}
				if key != next || len(payload) != n || !bytes.Equal(payload, want[key][:n]) {
					t.Errorf("%s (%d columns, secondary %v): key %d, want %d, with %d bytes %x, want the row's first %d", name, cols, secondary, key, next, len(payload), payload, n)
					return false
				}
				next++
				return true
			}
			var err error
			if secondary {
				_, err = tx.ScanSecondaryCols(tb, 0, 0, cols, fn)
			} else {
				_, err = tx.ScanCols(tb, 0, 0, cols, fn)
			}
			if err != nil {
				t.Fatalf("%s (%d columns, secondary %v): %v", name, cols, secondary, err)
			}
			if next != uint64(len(want))+1 {
				t.Fatalf("%s (%d columns, secondary %v): scan stopped before key %d", name, cols, secondary, next)
			}
		}
	}
}

// TestReadColsIsTheWholeReadCut: under every preset and CC algorithm a read
// bounded to the first n columns returns exactly the bytes of those columns
// that the whole-row read returns, and writes nothing past them, on every path
// a read takes: the CC read and the read under a write intent, the snapshot
// read of the tuple in NVM and of a version chain (multi-version algorithms),
// ZenS's tuple cache on a miss (which fills the whole tuple) and on the hit
// after it, the transaction's own updates and its own pending insert. A scan
// with a bound hands fn exactly the bound's bytes.
func TestReadColsIsTheWholeReadCut(t *testing.T) {
	for _, base := range allEngineConfigs() {
		for _, algo := range cc.All {
			cfg := base
			cfg.CC, cfg.Threads = algo, 2
			t.Run(fmt.Sprintf("%s/%v", cfg.Name, algo), func(t *testing.T) {
				sys := pmem.NewSystem(pmem.Config{DeviceBytes: 64 << 20})
				e, err := New(sys, cfg, []TableSpec{{Name: "c", Schema: colsSchema(), Capacity: 64, IndexKind: index.BTree, SecondaryCol: 1}})
				if err != nil {
					t.Fatal(err)
				}
				tb := e.Table("c")
				s := tb.Schema()
				rows := map[uint64][]byte{}
				for k := uint64(1); k <= 6; k++ {
					rows[k] = colsRow(s, k, 0)
					if err := e.Run(0, func(tx *Txn) error { return tx.Insert(tb, k, rows[k]) }); err != nil {
						t.Fatal(err)
					}
				}
				// A snapshot opened before key 2's update reads its old
				// version from the chain under a multi-version algorithm.
				old := map[uint64][]byte{}
				for k, r := range rows {
					old[k] = r
				}
				snap := e.BeginRO(1)
				rows[2] = colsRow(s, 2, 1)
				if err := e.Run(0, func(tx *Txn) error { return tx.Update(tb, 2, 16, rows[2][16:]) }); err != nil {
					t.Fatal(err)
				}
				if algo.MultiVersion() {
					checkReadCols(t, "old snapshot", snap, tb, old, true)
				}
				if err := snap.Commit(); err != nil {
					t.Fatal(err)
				}
				for _, ro := range []bool{true, false} {
					run, name := e.Run, "read-write"
					if ro {
						run, name = e.RunRO, "read-only"
					}
					if err := run(1, func(tx *Txn) error {
						checkReadCols(t, name, tx, tb, rows, ro)
						checkScanCols(t, name, tx, tb, rows)
						return nil
					}); err != nil {
						t.Fatal(err)
					}
				}

				// Own writes: a inside a three-column bound is seen, c outside
				// it is neither seen nor written past the bound, and of x,
				// which straddles the bound, only the half inside it is seen;
				// the same for an insert of this transaction.
				n := s.PrefixSize(3)
				var a, c, x [8]byte
				a[0], c[0] = 0xA1, 0xC1
				for i := range x {
					x[i] = 0xB0 + byte(i)
				}
				rows[7] = colsRow(s, 7, 0)
				if err := e.Run(0, func(tx *Txn) error {
					if err := tx.Insert(tb, 7, rows[7]); err != nil {
						return err
					}
					for _, k := range []uint64{3, 7} {
						if err := tx.UpdateField(tb, k, colsC, c[:]); err != nil {
							return err
						}
						if err := tx.UpdateField(tb, k, colsA, a[:]); err != nil {
							return err
						}
						if err := tx.Update(tb, k, n-4, x[:]); err != nil {
							return err
						}
						want := append([]byte(nil), rows[k][:n]...)
						copy(want[s.Offset(colsA):], a[:])
						copy(want[n-4:], x[:4])
						for _, forUpdate := range []bool{false, true} {
							dst := bytes.Repeat([]byte{0xEE}, s.TupleSize())
							read := tx.ReadCols
							if forUpdate {
								read = tx.ReadColsForUpdate
							}
							if err := read(tb, k, 3, dst); err != nil {
								return err
							}
							if !bytes.Equal(dst[:n], want) || pastSentinel(dst[n:]) >= 0 {
								return fmt.Errorf("key %d (for update %v): own writes read as %x, want %x then the sentinel", k, forUpdate, dst, want)
							}
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				for _, k := range []uint64{3, 7} {
					copy(rows[k][s.Offset(colsA):], a[:])
					copy(rows[k][n-4:], x[:])
					copy(rows[k][s.Offset(colsC):], c[:])
				}
				if err := e.RunRO(1, func(tx *Txn) error {
					checkReadCols(t, "after own writes", tx, tb, rows, true)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
