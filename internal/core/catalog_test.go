package core

import (
	"encoding/binary"
	"errors"
	"testing"

	"falcon/internal/index"
	"falcon/internal/pmem"
	"falcon/internal/sim"
)

// imageSpace reads a device image held in memory, from address 0.
type imageSpace []byte

func (s imageSpace) Read(_ *sim.Clock, addr uint64, buf []byte) { copy(buf, s[addr:]) }

// catalogImageOf returns the device prefix up to the end of the catalog body
// of a two-table engine (a hash table and a B+-tree table), and the system
// after a crash, whose media then hold the catalog.
func catalogImageOf(tb testing.TB) ([]byte, *pmem.System) {
	tb.Helper()
	cfg := FalconConfig()
	cfg.Threads = 2
	sys := pmem.NewSystem(pmem.Config{DeviceBytes: 64 << 20})
	specs := append(kvSpec(index.Hash, 500), kvSpec(index.BTree, 500)...)
	specs[1].Name = "tree"
	if _, err := New(sys, cfg, specs); err != nil {
		tb.Fatal(err)
	}
	sys = sys.Crash()
	var lenb [8]byte
	sys.Dev.RawRead(catalogBase, lenb[:])
	image := make([]byte, catalogBase+8+binary.LittleEndian.Uint64(lenb[:]))
	sys.Dev.RawRead(0, image)
	return image, sys
}

// withLength returns image with its catalog length word set to n.
func withLength(image []byte, n uint64) imageSpace {
	cut := append([]byte(nil), image...)
	binary.LittleEndian.PutUint64(cut[catalogBase:], n)
	return cut
}

// TestReadCatalogRefusesEveryCut: a catalog whose length word is cut short,
// at any length, is refused with ErrCatalogCorrupt, not decoded past its end.
func TestReadCatalogRefusesEveryCut(t *testing.T) {
	image, sys := catalogImageOf(t)
	n := uint64(len(image) - catalogBase - 8)
	img, err := readCatalog(withLength(image, n), sim.NewClock())
	if err != nil || len(img.tables) != 2 || img.tables[1].name != "tree" {
		t.Fatalf("whole catalog: %v, %+v", err, img)
	}
	for cut := uint64(0); cut < n; cut++ {
		if _, err := readCatalog(withLength(image, cut), sim.NewClock()); !errors.Is(err, ErrCatalogCorrupt) {
			t.Errorf("catalog cut to %d of %d bytes: %v, want ErrCatalogCorrupt", cut, n, err)
		}
	}
	sys.Dev.RawWrite(catalogBase, []byte{40, 0, 0, 0, 0, 0, 0, 0})
	cfg := FalconConfig()
	cfg.Threads = 2
	if _, _, err := Recover(sys, cfg); !errors.Is(err, ErrCatalogCorrupt) {
		t.Errorf("Recover of a 40-byte catalog: %v, want ErrCatalogCorrupt", err)
	}
}

// FuzzReadCatalog decodes arbitrary catalog bodies: readCatalog returns an
// image or an error wrapping ErrCatalogCorrupt, and never panics.
func FuzzReadCatalog(f *testing.F) {
	image, _ := catalogImageOf(f)
	body := image[catalogBase+8:]
	f.Add(body)
	f.Add(body[:len(body)/2])
	f.Fuzz(func(t *testing.T, body []byte) {
		image := make([]byte, catalogBase+8+len(body))
		copy(image[catalogBase+8:], body)
		if _, err := readCatalog(withLength(image, uint64(len(body))), sim.NewClock()); err != nil && !errors.Is(err, ErrCatalogCorrupt) {
			t.Fatalf("error %v does not wrap ErrCatalogCorrupt", err)
		}
	})
}
