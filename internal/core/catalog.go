package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"falcon/internal/layout"
	"falcon/internal/sim"
	"falcon/internal/wal"
)

// The catalog (paper §5.1) records database metadata in NVM: table schemas,
// the addresses of heaps, indexes and per-thread log windows. It is the first
// thing recovery reads. Writes go through the simulated cache (durable under
// persistent cache; explicitly flushed otherwise) at creation time only.

const catalogMagic = 0xFA1C0CA7_00000003

type catalogTable struct {
	name         string
	keyCol       int
	secondaryCol int
	indexKind    uint8
	capacity     uint64
	heapBase     uint64
	priBase      uint64
	secBase      uint64
	schema       *layout.Schema
}

type catalogImage struct {
	threads                int
	update                 UpdateScheme
	window                 wal.Config
	windowBase, markerBase uint64
	epochBase              uint64
	tables                 []catalogTable
}

func (e *Engine) writeCatalog(clk *sim.Clock) error {
	buf := make([]byte, 0, 4096)
	buf = binary.LittleEndian.AppendUint64(buf, catalogMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.cfg.Threads))
	buf = append(buf, byte(e.cfg.Update))
	if e.cfg.Window.Flush {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.cfg.Window.Slots))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.cfg.Window.SlotBytes))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.cfg.Window.OverflowBytes))
	buf = binary.LittleEndian.AppendUint64(buf, e.windowBase)
	buf = binary.LittleEndian.AppendUint64(buf, e.markerBase)
	buf = binary.LittleEndian.AppendUint64(buf, e.epochBase)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(e.tables)))
	for _, t := range e.tables {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(t.name)))
		buf = append(buf, t.name...)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(t.keyCol))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(t.secondaryCol))
		buf = append(buf, byte(t.indexKind))
		buf = binary.LittleEndian.AppendUint64(buf, t.capacity)
		buf = binary.LittleEndian.AppendUint64(buf, t.heapBase)
		buf = binary.LittleEndian.AppendUint64(buf, t.priBase)
		buf = binary.LittleEndian.AppendUint64(buf, t.secBase)
		buf = t.schema.AppendBinary(buf)
	}
	if len(buf)+8 > catalogBytes {
		return fmt.Errorf("core: catalog needs %d bytes, region holds %d", len(buf), catalogBytes)
	}
	// Length prefix, then body; flushed so the catalog is durable even
	// without persistent cache.
	var lenb [8]byte
	binary.LittleEndian.PutUint64(lenb[:], uint64(len(buf)))
	e.nvm.Write(clk, catalogBase, lenb[:])
	e.nvm.Write(clk, catalogBase+8, buf)
	e.nvm.SFence(clk)
	e.nvm.CLWB(clk, catalogBase, len(buf)+8)
	e.nvm.SFence(clk)
	return nil
}

// ErrCatalogCorrupt wraps every reason recovery finds no catalog it can read.
var ErrCatalogCorrupt = errors.New("core: catalog corrupt")

// catalogReader decodes the catalog body. A read past its end yields zeros
// and marks the reader short, so one check after the fields refuses it.
type catalogReader struct {
	buf   []byte
	short bool
}

func (r *catalogReader) next(n int) []byte {
	if n > len(r.buf) {
		r.short, r.buf = true, nil
		return make([]byte, n)
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

func (r *catalogReader) u8() byte    { return r.next(1)[0] }
func (r *catalogReader) u16() int    { return int(binary.LittleEndian.Uint16(r.next(2))) }
func (r *catalogReader) u32() int    { return int(binary.LittleEndian.Uint32(r.next(4))) }
func (r *catalogReader) u64() uint64 { return binary.LittleEndian.Uint64(r.next(8)) }

func readCatalog(space interface {
	Read(*sim.Clock, uint64, []byte)
}, clk *sim.Clock) (*catalogImage, error) {
	var lenb [8]byte
	space.Read(clk, catalogBase, lenb[:])
	n := binary.LittleEndian.Uint64(lenb[:])
	if n == 0 || n > catalogBytes {
		return nil, fmt.Errorf("%w: no catalog found (was the engine ever created?)", ErrCatalogCorrupt)
	}
	buf := make([]byte, n)
	space.Read(clk, catalogBase+8, buf)
	r := &catalogReader{buf: buf}
	if r.u64() != catalogMagic {
		return nil, fmt.Errorf("%w: magic mismatch", ErrCatalogCorrupt)
	}
	img := &catalogImage{}
	img.threads = r.u32()
	img.update = UpdateScheme(r.u8())
	img.window.Flush = r.u8() != 0
	img.window.Slots = r.u32()
	img.window.SlotBytes = r.u32()
	img.window.OverflowBytes = r.u32()
	img.windowBase = r.u64()
	img.markerBase = r.u64()
	img.epochBase = r.u64()
	ntables := r.u16()
	for i := 0; i < ntables; i++ {
		var ct catalogTable
		ct.name = string(r.next(r.u16()))
		ct.keyCol = r.u16()
		ct.secondaryCol = r.u16()
		ct.indexKind = r.u8()
		ct.capacity = r.u64()
		ct.heapBase = r.u64()
		ct.priBase = r.u64()
		ct.secBase = r.u64()
		sch, consumed, err := layout.DecodeSchema(r.buf) // refuses the nil buf of a short reader
		if err != nil {
			return nil, fmt.Errorf("%w: table %d: %w", ErrCatalogCorrupt, i, err)
		}
		r.next(consumed)
		ct.schema = sch
		img.tables = append(img.tables, ct)
	}
	if r.short {
		return nil, fmt.Errorf("%w: %d bytes end inside a field", ErrCatalogCorrupt, n)
	}
	return img, nil
}
