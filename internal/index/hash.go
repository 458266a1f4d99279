package index

import (
	"encoding/binary"
	"fmt"
	"sync"

	"falcon/internal/pmem"
	"falcon/internal/sim"
)

const (
	hashMagic = 0xFA1C0DA5_00000003 // 2: fingerprinted buckets; 3: a one-block header

	bucketBytes   = pmem.BlockSize // one NVM media block per bucket
	bucketEntries = 15             // 16 B header + 15 × 16 B entries = 256 B
	maxProbe      = 16             // linear-probe window in buckets

	// stripeShift groups buckets into lock stripes of 2^stripeShift; a probe
	// window spans at most two stripes.
	stripeShift = 5
)

// HashIndex is a bucketized linear-probing hash table over a Space. Each
// bucket is one 256 B block holding up to 15 entries; inserts that overflow
// a bucket probe forward and set the origin's overflow marker so lookups
// know to keep probing. As in Dash, a bucket's first cache line carries a
// one-byte fingerprint per entry, so a probe reads that line and then only
// the entries whose fingerprint matches, not the block.
type HashIndex struct {
	space    pmem.Space
	base     uint64
	nbuckets uint64
	locks    []sync.RWMutex
}

// HashBytes returns the persistent footprint for a capacity-key index.
func HashBytes(capacity uint64) uint64 {
	return structHdrBytes + hashBuckets(capacity)*bucketBytes
}

func hashBuckets(capacity uint64) uint64 {
	// Size for ~60% bucket load so probe chains stay short.
	n := capacity/(bucketEntries*6/10) + 1
	b := uint64(1)
	for b < n {
		b <<= 1
	}
	if b < 64 {
		b = 64
	}
	return b
}

// NewHash formats a hash index at base sized for capacity keys.
func NewHash(space pmem.Space, base uint64, capacity uint64) (*HashIndex, error) {
	nb := hashBuckets(capacity)
	h := &HashIndex{space: space, base: base, nbuckets: nb}
	if base+h.Bytes() > space.Size() {
		return nil, fmt.Errorf("index: hash at %d (%d buckets) overflows space", base, nb)
	}
	var hdr [64]byte
	binary.LittleEndian.PutUint64(hdr[0:], hashMagic)
	binary.LittleEndian.PutUint64(hdr[8:], nb)
	space.BulkWrite(base, hdr[:])
	// Buckets start zeroed (count 0): both kinds of space are zero-filled and
	// neither allocator that places an index (alloc.Arena, Engine.dramAlloc)
	// hands a region out twice, so there is nothing to clear.
	h.locks = make([]sync.RWMutex, nb>>stripeShift+1)
	return h, nil
}

// OpenHash reattaches to a hash index at base (instant recovery: the
// structure is already in NVM).
func OpenHash(space pmem.Space, clk *sim.Clock, base uint64) (*HashIndex, error) {
	var hdr [64]byte
	space.Read(clk, base, hdr[:])
	if binary.LittleEndian.Uint64(hdr[0:]) != hashMagic {
		return nil, fmt.Errorf("index: no hash index at %d", base)
	}
	h := &HashIndex{space: space, base: base, nbuckets: binary.LittleEndian.Uint64(hdr[8:])}
	h.locks = make([]sync.RWMutex, h.nbuckets>>stripeShift+1)
	return h, nil
}

// Kind returns Hash.
func (h *HashIndex) Kind() Kind { return Hash }

// Bytes returns the persistent footprint.
func (h *HashIndex) Bytes() uint64 { return structHdrBytes + h.nbuckets*bucketBytes }

func (h *HashIndex) bucketOff(i uint64) uint64 { return h.base + structHdrBytes + i*bucketBytes }

// BucketAddr returns the space offset of bucket i (diagnostics and tests).
func (h *HashIndex) BucketAddr(i uint64) uint64 { return h.bucketOff(i) }

// lockSpan write- or read-locks the (at most two) stripes covering the probe
// window starting at bucket b, in index order to avoid deadlock. It returns
// the locked stripe range for unlockSpan. The lock/unlock pair is split into
// plain methods (rather than a returned unlock closure) because every index
// operation crosses it: the three closures the old shape allocated per call
// were a measurable slice of sweep host time.
func (h *HashIndex) lockSpan(b uint64, write bool) (lo, hi uint64) {
	s1 := b >> stripeShift
	s2 := ((b + maxProbe - 1) & (h.nbuckets - 1)) >> stripeShift
	lo, hi = s1, s2
	if lo > hi {
		lo, hi = hi, lo
	}
	if write {
		h.locks[lo].Lock()
		if hi != lo {
			h.locks[hi].Lock()
		}
	} else {
		h.locks[lo].RLock()
		if hi != lo {
			h.locks[hi].RLock()
		}
	}
	return lo, hi
}

// unlockSpan releases the stripes locked by lockSpan.
func (h *HashIndex) unlockSpan(lo, hi uint64, write bool) {
	if write {
		if hi != lo {
			h.locks[hi].Unlock()
		}
		h.locks[lo].Unlock()
	} else {
		if hi != lo {
			h.locks[hi].RUnlock()
		}
		h.locks[lo].RUnlock()
	}
}

// A bucket image: line 0 is the header (count and overflow marker in byte 0,
// one fingerprint per entry in bytes 1–15) and entries 0–2; entries 3–14 fill
// the other three lines. DESIGN.md §3 "Hash bucket" has the byte map and the
// crash argument behind the store orders below.
const (
	headBytes   = 16
	entryBytes  = 16
	lineEntries = (pmem.LineSize - headBytes) / entryBytes // entries that share the header's line

	countMask   = 0x0f
	overflowBit = 0x80
)

type bucketBuf [bucketBytes]byte

// bucketBufs recycles bucket images. The buffers are only ever stack-shaped
// (acquired and released within one index operation), but they are handed to
// Space.Read through the pmem.Space interface, which forces them to the heap;
// pooling turns a 256 B allocation per index operation into a pool hit.
var bucketBufs = sync.Pool{New: func() any { return new(bucketBuf) }}

func entryOff(i int) int { return headBytes + entryBytes*i }

// fingerprint is the top byte of the key's hash: the low bits pick the
// bucket, so the keys of one bucket still spread over all 256 values.
func fingerprint(hash uint64) byte { return byte(hash >> 56) }

func (b *bucketBuf) count() int     { return int(b[0] & countMask) }
func (b *bucketBuf) overflow() bool { return b[0]&overflowBit != 0 }

// endsChain reports whether no key that hashed here can live further on:
// the bucket has room and no insert ever had to pass it.
func (b *bucketBuf) endsChain() bool { return b.count() < bucketEntries && !b.overflow() }

func (b *bucketBuf) key(i int) uint64 { return binary.LittleEndian.Uint64(b[entryOff(i):]) }
func (b *bucketBuf) val(i int) uint64 { return binary.LittleEndian.Uint64(b[entryOff(i)+8:]) }
func (b *bucketBuf) set(i int, k, v uint64) {
	binary.LittleEndian.PutUint64(b[entryOff(i):], k)
	binary.LittleEndian.PutUint64(b[entryOff(i)+8:], v)
}

// readEntry loads entry i of bucket bi into its place in buf. Entries below
// lineEntries came with line 0.
func (h *HashIndex) readEntry(clk *sim.Clock, buf *bucketBuf, bi uint64, i int) {
	if i >= lineEntries {
		o := entryOff(i)
		h.space.Read(clk, h.bucketOff(bi)+uint64(o), buf[o:o+entryBytes])
	}
}

// writeEntry and writeHead store entry i and the header of bucket bi from buf.
func (h *HashIndex) writeEntry(clk *sim.Clock, buf *bucketBuf, bi uint64, i int) {
	o := entryOff(i)
	h.space.Write(clk, h.bucketOff(bi)+uint64(o), buf[o:o+entryBytes])
}

func (h *HashIndex) writeHead(clk *sim.Clock, buf *bucketBuf, bi uint64) {
	h.space.Write(clk, h.bucketOff(bi), buf[:headBytes])
}

// probe is the only read path into a bucket: it loads line 0 of bucket bi
// into buf and returns match from slot 0. Afterwards buf holds the header,
// entries 0–2 and the entries match compared; the rest of buf is stale.
func (h *HashIndex) probe(clk *sim.Clock, buf *bucketBuf, bi, key uint64, fp byte) int {
	h.space.Read(clk, h.bucketOff(bi), buf[:pmem.LineSize])
	return h.match(clk, buf, bi, key, fp, 0)
}

// match returns the first slot at or after from that holds key, or -1,
// loading only the entries whose fingerprint is fp.
func (h *HashIndex) match(clk *sim.Clock, buf *bucketBuf, bi, key uint64, fp byte, from int) int {
	for i, n := from, buf.count(); i < n; i++ {
		if buf[1+i] != fp {
			continue
		}
		h.readEntry(clk, buf, bi, i)
		if buf.key(i) == key {
			return i
		}
	}
	return -1
}

// find walks the probe window of key, whose hash is hash, and returns the
// bucket and slot holding it, with buf as probe left it for that bucket.
func (h *HashIndex) find(clk *sim.Clock, buf *bucketBuf, hash, key uint64) (bi uint64, slot int) {
	for p := uint64(0); p < maxProbe; p++ {
		bi = (hash + p) & (h.nbuckets - 1)
		if slot = h.probe(clk, buf, bi, key, fingerprint(hash)); slot >= 0 || buf.endsChain() {
			return bi, slot
		}
	}
	return 0, -1
}

// Get returns the value for key.
func (h *HashIndex) Get(clk *sim.Clock, key uint64) (uint64, bool) {
	hash := hash64(key)
	lo, hi := h.lockSpan(hash&(h.nbuckets-1), false)
	defer h.unlockSpan(lo, hi, false)

	buf := bucketBufs.Get().(*bucketBuf)
	defer bucketBufs.Put(buf)
	_, i := h.find(clk, buf, hash, key)
	if i < 0 {
		return 0, false
	}
	return buf.val(i), true
}

// Insert adds key→val. One pass over the probe window checks for a duplicate
// and remembers where the key will go — the first bucket with room — and the
// full buckets before it that do not yet carry the overflow marker.
func (h *HashIndex) Insert(clk *sim.Clock, key, val uint64) error {
	hash := hash64(key)
	start := hash & (h.nbuckets - 1)
	lo, hi := h.lockSpan(start, true)
	defer h.unlockSpan(lo, hi, true)

	buf := bucketBufs.Get().(*bucketBuf)
	defer bucketBufs.Put(buf)
	place := -1              // window position of the bucket with room
	var head [headBytes]byte // its header; a local never handed to the Space
	var mark uint16          // window positions to mark; maxProbe bits
	for p := 0; p < maxProbe; p++ {
		bi := (start + uint64(p)) & (h.nbuckets - 1)
		if h.probe(clk, buf, bi, key, fingerprint(hash)) >= 0 {
			return ErrDuplicate
		}
		if place < 0 {
			if buf.count() < bucketEntries {
				place = p
				copy(head[:], buf[:headBytes])
			} else if !buf.overflow() {
				mark |= 1 << p
			}
		}
		if buf.endsChain() {
			break
		}
	}
	// A full bucket's count cannot change under the window's lock, so its
	// marker is a store of byte 0 alone.
	buf[0] = bucketEntries | overflowBit
	for p := uint64(0); mark != 0; p, mark = p+1, mark>>1 {
		if mark&1 != 0 {
			h.space.Write(clk, h.bucketOff((start+p)&(h.nbuckets-1)), buf[:1])
		}
	}
	if place < 0 {
		return ErrFull
	}
	// Entry, then the header: the count and the fingerprint arrive in one
	// store within one line, so an entry past the count stays invisible and a
	// fingerprint never shows without its count.
	bi := (start + uint64(place)) & (h.nbuckets - 1)
	n := int(head[0] & countMask)
	copy(buf[:headBytes], head[:])
	buf[0]++
	buf[1+n] = fingerprint(hash)
	buf.set(n, key, val)
	h.writeEntry(clk, buf, bi, n)
	h.writeHead(clk, buf, bi)
	return nil
}

// Update repoints an existing key at a new value (out-of-place engines): one
// store of the entry, the header does not change. A crash inside Delete can
// leave a key twice in its bucket, under one fingerprint; both copies take
// the value, so whichever a later delete moves in front still holds it.
func (h *HashIndex) Update(clk *sim.Clock, key, val uint64) bool {
	hash := hash64(key)
	lo, hi := h.lockSpan(hash&(h.nbuckets-1), true)
	defer h.unlockSpan(lo, hi, true)

	buf := bucketBufs.Get().(*bucketBuf)
	defer bucketBufs.Put(buf)
	bi, i := h.find(clk, buf, hash, key)
	if i < 0 {
		return false
	}
	for ; i >= 0; i = h.match(clk, buf, bi, key, fingerprint(hash), i+1) {
		buf.set(i, key, val)
		h.writeEntry(clk, buf, bi, i)
	}
	return true
}

// Delete removes key by swapping the last entry into its hole: the moved
// entry, then the header with the moved fingerprint and the smaller count.
// Between the two stores the moved key is present twice, and the hole still
// carries the deleted key's fingerprint over the moved entry, which costs a
// lookup one compare that fails. A crash there leaves the two copies, so
// Delete goes on until the bucket holds none.
func (h *HashIndex) Delete(clk *sim.Clock, key uint64) bool {
	hash := hash64(key)
	lo, hi := h.lockSpan(hash&(h.nbuckets-1), true)
	defer h.unlockSpan(lo, hi, true)

	buf := bucketBufs.Get().(*bucketBuf)
	defer bucketBufs.Put(buf)
	bi, i := h.find(clk, buf, hash, key)
	if i < 0 {
		return false
	}
	for ; i >= 0; i = h.match(clk, buf, bi, key, fingerprint(hash), i) {
		last := buf.count() - 1
		if i != last {
			h.readEntry(clk, buf, bi, last)
			buf.set(i, buf.key(last), buf.val(last))
			h.writeEntry(clk, buf, bi, i)
			buf[1+i] = buf[1+last]
		}
		buf[0]--
		h.writeHead(clk, buf, bi)
	}
	return true
}

// Scan is unsupported on hash indexes.
func (h *HashIndex) Scan(clk *sim.Clock, from uint64, fn func(key, val uint64) bool) error {
	return ErrUnordered
}
