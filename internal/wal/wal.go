// Package wal implements Falcon's redo logging (paper §4.3, §5.2.2).
//
// Each worker thread owns a small log window: a circular set of K transaction
// slots holding the redo log (= the write set) of the K most recent
// transactions. The window is written through the simulated cache and — this
// is the paper's central observation — never explicitly flushed: under
// persistent cache (eADR) the stores are durable the moment they execute, and
// because the window is small and constantly reused, its lines stay
// cache-resident and generate no NVM media traffic at all.
//
// The same structure doubles as the classic flushed redo log used by the Inp
// baseline: with Flush set, Commit issues clwb over the whole record. The
// record bytes are sequential, so those flushes merge into full-block media
// writes — the log path of a conventional NVM engine.
//
// Records larger than a slot spill into a per-slot overflow region; overflow
// bytes are flushed at commit, modelling the paper's Fig. 12 regime where
// oversized transactions erode the small-log-window advantage.
package wal

import (
	"encoding/binary"
	"hash/crc32"
	"sort"

	"falcon/internal/obs"
	"falcon/internal/pmem"
	"falcon/internal/sim"
)

// DisableChecksumVerify turns off CRC verification in ReadRecords. It exists
// only so tests can demonstrate what a checksum-less build mis-replays; it
// must never be set outside a test.
var DisableChecksumVerify bool

// Transaction-slot states (durable header word).
const (
	// StateFree marks a never-used or released slot.
	StateFree uint64 = 0
	// StateUncommitted marks an in-progress transaction; its ops are ignored
	// by recovery.
	StateUncommitted uint64 = 1
	// StateCommitted marks a durably committed transaction; recovery replays
	// its ops (idempotently, guarded by tuple timestamps).
	StateCommitted uint64 = 2
	// StatePublished marks a group-commit record at its publish point: the
	// transaction's conflict window has closed but its durability epoch may
	// not be sealed yet. Recovery replays it like StateCommitted under
	// persistent cache (eADR); under ADR only when the durable epoch marker
	// covers its epoch — the per-epoch all-or-nothing gate.
	StatePublished uint64 = 3
)

// Op types.
const (
	// OpUpdate is an in-place field update: Data overwrites payload bytes
	// [Off, Off+len(Data)) of (Table, Slot).
	OpUpdate uint8 = 1
	// OpInsert installs a fresh tuple: Data is the full payload and Key is
	// the index key.
	OpInsert uint8 = 2
	// OpDelete marks (Table, Slot) deleted and removes Key from the index.
	OpDelete uint8 = 3
)

const (
	hdrState   = 0
	hdrTID     = 8
	hdrNops    = 16 // u32
	hdrLen     = 20 // u32: payload bytes used in the slot
	hdrExtLen  = 24 // u32: payload bytes continued in the overflow region
	hdrCRC     = 28 // u32: CRC32 (IEEE) over tid, payload, count words, and epoch
	hdrEpoch   = 32 // u64: durability epoch id (0 on the per-commit path)
	hdrBytes   = 64
	opHdrBytes = 1 + 1 + 2 + 8 + 8 + 4 + 4 // type, table, pad, slot, key, off, len
)

// Config sizes one thread's window.
type Config struct {
	// Slots is the number of transaction slots (the paper uses 2–3).
	Slots int
	// SlotBytes is the redo capacity of one slot, header included.
	SlotBytes int
	// OverflowBytes is the per-slot spill capacity for oversized
	// transactions.
	OverflowBytes int
	// Flush selects the classic flushed-log behaviour (Inp baseline):
	// Commit clwbs the whole record.
	Flush bool
}

func (c Config) withDefaults() Config {
	if c.Slots == 0 {
		c.Slots = 3
	}
	if c.SlotBytes == 0 {
		c.SlotBytes = 4096
	}
	return c
}

// BytesNeeded returns the persistent footprint of one thread's window.
func BytesNeeded(c Config) uint64 {
	c = c.withDefaults()
	return uint64(c.Slots) * uint64(c.SlotBytes+c.OverflowBytes)
}

// Window is one thread's log window. It is single-writer (the owning
// thread); recovery reads it via ReadRecords.
type Window struct {
	space pmem.Space
	base  uint64
	cfg   Config
	cur   int // round-robin slot cursor (volatile; rebuilt trivially)
	// stats accumulates the window's observability gauges. Single-writer
	// like the window itself: only the owning thread updates it, and
	// snapshots are taken while workers are quiescent.
	stats obs.WALStats
	// pr is the owning worker's probe: slot claims, record drains, group
	// waits and epoch seals are reported to it. A window built outside an
	// engine has none; a nil probe is inert.
	pr *obs.Probe
	// scratch is the window's reusable header buffer. Headers must be
	// written and parsed as multi-word images (one simulated store or load),
	// so the word-at-a-time Space helpers do not apply; a stack buffer
	// heap-escapes through the Space interface on every call. Safe to share
	// across Begin/Commit/appendOp/ReadOp because the window is single-owner
	// like the rest of its state.
	scratch [40]byte
	// board, when set, enables group commit: Publish enlists records into
	// durability epochs on it and GroupWait backpressures slot reclaims
	// against unsealed epochs. slotEpoch mirrors, per slot, the epoch of the
	// published record occupying it (volatile bookkeeping; 0 = none).
	board     *EpochBoard
	slotEpoch []uint64
}

// SetBoard attaches the shared group-commit epoch board (nil detaches).
// Must be called while the owning worker is quiescent.
func (w *Window) SetBoard(b *EpochBoard) {
	w.board = b
	if b != nil && w.slotEpoch == nil {
		w.slotEpoch = make([]uint64, w.cfg.Slots)
	}
}

// GroupWait is the group-commit backpressure point, called before Begin
// reclaims the next slot: if the slot's previous record belongs to an epoch
// that is not sealed yet, the worker stalls until that epoch's boundary (the
// bounded timeout) and forces the seal. Returns the virtual nanoseconds
// stalled; the caller attributes them to the group-wait phase.
func (w *Window) GroupWait(clk *sim.Clock) uint64 {
	if w.board == nil || w.slotEpoch == nil {
		return 0
	}
	id := w.slotEpoch[w.cur]
	if id == 0 {
		return 0
	}
	n := w.board.reclaimWait(clk, w.pr, id)
	w.pr.GroupWait(n)
	return n
}

// Attach hands the window its owning worker's probe and returns the window.
// Must be called while the worker is quiescent.
func (w *Window) Attach(pr *obs.Probe) *Window {
	w.pr = pr
	return w
}

// Stats returns a copy of the window's accumulated gauges, with the slot
// capacity filled in as the occupancy denominator.
func (w *Window) Stats() obs.WALStats {
	s := w.stats
	s.SlotBytes = uint64(w.cfg.SlotBytes)
	return s
}

// ResetStats zeroes the window's gauges (between benchmark phases).
func (w *Window) ResetStats() { w.stats = obs.WALStats{} }

// NewWindow creates a window at base. The caller provides a region of
// BytesNeeded(cfg) bytes. Slots are formatted as StateFree.
func NewWindow(space pmem.Space, base uint64, cfg Config) *Window {
	cfg = cfg.withDefaults()
	w := &Window{space: space, base: base, cfg: cfg}
	for i := 0; i < cfg.Slots; i++ {
		space.BulkWriteU64(w.slotOff(i)+hdrState, 0)
	}
	return w
}

// OpenWindow reattaches to an existing window (post-recovery reuse; contents
// are consumed by ReadRecords first, then the window is reformatted).
func OpenWindow(space pmem.Space, base uint64, cfg Config) *Window {
	cfg = cfg.withDefaults()
	return &Window{space: space, base: base, cfg: cfg}
}

func (w *Window) slotOff(i int) uint64 {
	return w.base + uint64(i)*uint64(w.cfg.SlotBytes)
}

func (w *Window) ovfOff(i int) uint64 {
	return w.base + uint64(w.cfg.Slots)*uint64(w.cfg.SlotBytes) + uint64(i)*uint64(w.cfg.OverflowBytes)
}

// Begin claims the next slot round-robin and opens a transaction log with
// the given TID. Claiming overwrites the previous record in that slot, which
// is safe: any transaction K slots back is either aborted or committed with
// all its updates already durable (persistent cache), so its log is dead
// (§4.2 "lifetime of logs").
func (w *Window) Begin(clk *sim.Clock, tid uint64) *TxnLog {
	i := w.cur
	w.cur = (w.cur + 1) % w.cfg.Slots
	w.stats.Begins++
	wrapped := w.stats.Begins > uint64(w.cfg.Slots)
	if wrapped {
		w.stats.Wraps++ // reclaiming a previously used slot: the window cycled
	}
	w.pr.WALClaim(clk.Nanos(), uint64(i), wrapped)
	if w.slotEpoch != nil {
		w.slotEpoch[i] = 0 // the previous record's epoch was sealed by GroupWait
	}
	l := &TxnLog{w: w, slot: i, pos: hdrBytes}
	hdr := w.scratch[:32]
	for b := range hdr {
		hdr[b] = 0
	}
	binary.LittleEndian.PutUint64(hdr[hdrState:], StateUncommitted)
	binary.LittleEndian.PutUint64(hdr[hdrTID:], tid)
	// nops/len/extlen/crc cleared; written at commit.
	w.space.Write(clk, w.slotOff(i), hdr[:])
	// The record checksum is maintained incrementally host-side (it is
	// engine bookkeeping, not a simulated memory access): seeded over the
	// TID, extended by every appended byte, finalized over the count words.
	l.crc = crc32.Update(0, crc32.IEEETable, hdr[hdrTID:hdrTID+8])
	return l
}

// TxnLog is the active transaction's redo log / write set.
type TxnLog struct {
	w      *Window
	slot   int
	pos    int // next write offset within the slot region
	extPos int // bytes used in the overflow region
	nops   int
	full   bool   // ran out of overflow space; ops beyond this are lost
	crc    uint32 // running record checksum (host-side, published at commit)
}

// Overflowed reports whether the record spilled past the slot into the
// overflow region.
func (l *TxnLog) Overflowed() bool { return l.extPos > 0 }

// Full reports whether even the overflow region was exhausted. The engine
// must abort such transactions: their redo is incomplete.
func (l *TxnLog) Full() bool { return l.full }

// TID returns the owning transaction id (read back from the header line —
// a cache hit).
func (l *TxnLog) TID(clk *sim.Clock) uint64 {
	return l.w.space.ReadU64(clk, l.w.slotOff(l.slot)+hdrTID)
}

// append writes raw bytes at the log cursor, spilling to overflow as needed.
// It returns the logical record offset of the first byte written, or -1 when
// space ran out.
func (l *TxnLog) append(clk *sim.Clock, b []byte) int {
	if l.full {
		return -1
	}
	logical := l.pos - hdrBytes + l.extPos
	rem := len(b)
	src := b
	// Fill the slot region first.
	if l.pos < l.w.cfg.SlotBytes {
		n := l.w.cfg.SlotBytes - l.pos
		if n > rem {
			n = rem
		}
		l.w.space.Write(clk, l.w.slotOff(l.slot)+uint64(l.pos), src[:n])
		l.pos += n
		src = src[n:]
		rem -= n
	}
	if rem > 0 {
		if l.extPos+rem > l.w.cfg.OverflowBytes {
			l.full = true
			l.w.stats.FullRejects++
			return -1
		}
		l.w.space.Write(clk, l.w.ovfOff(l.slot)+uint64(l.extPos), src)
		l.extPos += rem
	}
	l.crc = crc32.Update(l.crc, crc32.IEEETable, b)
	return logical
}

// appendOp serializes one op, returning its logical record position or -1
// when the window (including overflow) is exhausted. Data may be nil
// (deletes).
func (l *TxnLog) appendOp(clk *sim.Clock, typ, table uint8, slot, key uint64, off int, data []byte) int {
	hdr := l.w.scratch[:opHdrBytes]
	hdr[0] = typ
	hdr[1] = table
	hdr[2], hdr[3] = 0, 0 // reserved bytes: the buffer is reused, keep them zero
	binary.LittleEndian.PutUint64(hdr[4:], slot)
	binary.LittleEndian.PutUint64(hdr[12:], key)
	binary.LittleEndian.PutUint32(hdr[20:], uint32(off))
	binary.LittleEndian.PutUint32(hdr[24:], uint32(len(data)))
	pos := l.append(clk, hdr)
	if pos < 0 {
		return -1
	}
	if len(data) > 0 && l.append(clk, data) < 0 {
		return -1
	}
	l.nops++
	return pos
}

// AppendUpdate logs an in-place field update, returning the op's record
// position (-1 on overflow exhaustion). The logged value is the post-image,
// which keeps replay idempotent (§5.2.2: non-idempotent operations must be
// converted by recording updated values).
func (l *TxnLog) AppendUpdate(clk *sim.Clock, table uint8, slot, key uint64, off int, data []byte) int {
	return l.appendOp(clk, OpUpdate, table, slot, key, off, data)
}

// AppendInsert logs a tuple insert with its full payload.
func (l *TxnLog) AppendInsert(clk *sim.Clock, table uint8, slot, key uint64, payload []byte) int {
	return l.appendOp(clk, OpInsert, table, slot, key, 0, payload)
}

// AppendDelete logs a tuple delete.
func (l *TxnLog) AppendDelete(clk *sim.Clock, table uint8, slot, key uint64) int {
	return l.appendOp(clk, OpDelete, table, slot, key, 0, nil)
}

// commitStats accumulates the window gauges common to both commit flavours.
func (l *TxnLog) commitStats() {
	recBytes := uint64(l.pos-hdrBytes) + uint64(l.extPos)
	l.w.stats.Commits++
	l.w.stats.BytesLogged += recBytes
	if recBytes > l.w.stats.MaxRecordBytes {
		l.w.stats.MaxRecordBytes = recBytes
	}
	if l.extPos > 0 {
		l.w.stats.Overflows++
		l.w.stats.OverflowBytes += uint64(l.extPos)
	}
}

// publishHeader writes the record's count image and state word. Counts,
// checksum, and epoch share the header cache line and publish in one store:
// nops, slot length, overflow length, CRC, epoch — the CRC finalized over the
// three count words and the epoch word, so a torn or flipped count (or a
// record attributed to the wrong epoch) is caught by the same checksum that
// protects the payload. No fence: the caller decides the drain.
func (l *TxnLog) publishHeader(clk *sim.Clock, state, epoch uint64) {
	base := l.w.slotOff(l.slot)
	cnt := l.w.scratch[:24]
	binary.LittleEndian.PutUint32(cnt[0:], uint32(l.nops))
	binary.LittleEndian.PutUint32(cnt[4:], uint32(l.pos-hdrBytes))
	binary.LittleEndian.PutUint32(cnt[8:], uint32(l.extPos))
	binary.LittleEndian.PutUint64(cnt[16:], epoch)
	crc := crc32.Update(l.crc, crc32.IEEETable, cnt[0:12])
	crc = crc32.Update(crc, crc32.IEEETable, cnt[16:24])
	binary.LittleEndian.PutUint32(cnt[12:], crc)
	l.w.space.Write(clk, base+hdrNops, cnt)
	l.w.space.WriteU64(clk, base+hdrState, state)
}

// pendingSpans appends the byte ranges this record must force to the media
// to be durable: the whole record region when the window is a flushed log
// (classic NVM logging — the record is contiguous, so the clwbs merge into
// full blocks), and the overflow bytes whenever present (they are written
// once and not reused, so they will not stay cached; eagerly flushing them is
// the cost that erodes the small-log-window benefit for oversized
// transactions). Shared by the per-commit drain and the epoch seal's train
// assembly.
func (l *TxnLog) pendingSpans(spans []pmem.Span) []pmem.Span {
	if l.w.cfg.Flush {
		spans = append(spans, pmem.Span{Off: l.w.slotOff(l.slot), N: l.pos})
	}
	if l.extPos > 0 {
		spans = append(spans, pmem.Span{Off: l.w.ovfOff(l.slot), N: l.extPos})
	}
	return spans
}

// drainPending is the per-commit durable point: clwb over the record's
// pending spans, then one fence that both orders the state publish and
// drains the flushes. A single trailing fence replaces the per-site fences
// the commit path used to issue — fences are pure cost in the simulator
// (durability depends only on write-back timing), so consolidating them is
// semantics-preserving.
func (l *TxnLog) drainPending(clk *sim.Clock) {
	var buf [2]pmem.Span
	spans := l.pendingSpans(buf[:0])
	if len(spans) == 0 {
		l.w.space.SFence(clk)
		return
	}
	flushStart := clk.Nanos()
	var lines uint64
	for _, sp := range spans {
		l.w.space.CLWB(clk, sp.Off, sp.N)
		lines += uint64(sp.Lines())
	}
	l.w.space.SFence(clk)
	l.w.pr.FlushTrain(flushStart, clk.Nanos(), lines)
}

// Commit publishes the record — op counts, then the COMMITTED state — and
// drains it: from the trailing fence the transaction is durable (Algorithm 1
// line 2). This is the per-commit path; group commit uses Publish instead.
func (l *TxnLog) Commit(clk *sim.Clock) {
	l.commitStats()
	l.publishHeader(clk, StateCommitted, 0)
	l.drainPending(clk)
}

// Publish is the group-commit publish point: the record becomes visible
// (StatePublished, tagged with its durability epoch) and its record spans
// enlist on the epoch board, but nothing is fenced or flushed here. The
// durable point comes when the epoch seals. The caller enlists its deferred
// tuple spans via EnlistData and then plays lazy leader with SealExpired.
// Returns the epoch id the record joined — or 0 when the publisher's clock
// lags the sealed marker, in which case the record is drained per-commit on
// the spot (it is durable from the return, like the classic Commit path) and
// never waits on a leader.
func (l *TxnLog) Publish(clk *sim.Clock) uint64 {
	l.commitStats()
	var buf [2]pmem.Span
	epoch := l.w.board.enlist(clk, l.pendingSpans(buf[:0]), nil)
	l.publishHeader(clk, StatePublished, epoch)
	l.w.slotEpoch[l.slot] = epoch
	if epoch == 0 {
		l.drainPending(clk)
	}
	return epoch
}

// EnlistData adds deferred tuple-flush spans to the record's epoch (they
// ride the seal's data trains, after the marker publish).
func (l *TxnLog) EnlistData(clk *sim.Clock, epoch uint64, spans []pmem.Span) {
	l.w.board.enlistData(clk, epoch, spans)
}

// SealExpired is the lazy leader step: the worker seals every epoch whose
// boundary its own virtual time has passed, releasing those epochs'
// followers. Publishers call it once per commit, after EnlistData.
func (w *Window) SealExpired(clk *sim.Clock) {
	if w.board != nil {
		w.board.sealExpired(clk, w.pr)
	}
}

// Abort releases the slot without publishing (state back to FREE).
func (l *TxnLog) Abort(clk *sim.Clock) {
	l.w.stats.Aborts++
	l.w.space.WriteU64(clk, l.w.slotOff(l.slot)+hdrState, StateFree)
	l.w.space.SFence(clk)
}

// Op is a deserialized redo operation.
type Op struct {
	Type  uint8
	Table uint8
	Slot  uint64
	Key   uint64
	Off   int
	Data  []byte
}

// ReadOp reads back the op at logical record offset pos (as returned during
// execution) — used by the engine at apply time, reading the write set from
// the window (cache hits).
func (l *TxnLog) ReadOp(clk *sim.Clock, pos int) (Op, int) {
	r := recordReader{space: l.w.space, slotOff: l.w.slotOff(l.slot), ovfOff: l.w.ovfOff(l.slot),
		slotCap: l.w.cfg.SlotBytes - hdrBytes, scratch: &l.w.scratch}
	return r.readOp(clk, pos)
}

// Record is one recovered transaction record.
type Record struct {
	TID   uint64
	State uint64
	// Epoch is the durability epoch the record published into (0 on the
	// per-commit path). Recovery under ADR replays a StatePublished record
	// only when the durable epoch marker covers this id.
	Epoch uint64
	Ops   []Op
}

// recordReader reads record bytes across the slot/overflow split. When crc
// is non-nil every byte read streams through the running checksum — record
// verification costs no simulated reads beyond the parse itself.
type recordReader struct {
	space   pmem.Space
	slotOff uint64 // data begins at slotOff+hdrBytes
	ovfOff  uint64
	slotCap int // payload bytes that fit in the slot region
	crc     *uint32
	// scratch receives op headers; the caller provides a long-lived buffer
	// so each parsed op does not heap-allocate one (see Window.scratch).
	scratch *[40]byte
}

func (r recordReader) read(clk *sim.Clock, pos int, dst []byte) {
	full := dst
	n := len(dst)
	if pos < r.slotCap {
		k := r.slotCap - pos
		if k > n {
			k = n
		}
		r.space.Read(clk, r.slotOff+hdrBytes+uint64(pos), dst[:k])
		pos += k
		dst = dst[k:]
		n -= k
	}
	if n > 0 {
		r.space.Read(clk, r.ovfOff+uint64(pos-r.slotCap), dst)
	}
	if r.crc != nil {
		*r.crc = crc32.Update(*r.crc, crc32.IEEETable, full)
	}
}

func (r recordReader) readOp(clk *sim.Clock, pos int) (Op, int) {
	op, pos, _ := r.readOpBounded(clk, pos, 1<<31-1)
	return op, pos
}

// readOpBounded parses one op, refusing (ok=false) any header or payload
// that would extend past limit — the defence that keeps a torn or corrupt
// record from driving a huge allocation or an out-of-range read.
func (r recordReader) readOpBounded(clk *sim.Clock, pos, limit int) (op Op, next int, ok bool) {
	if pos+opHdrBytes > limit {
		return Op{}, pos, false
	}
	hdr := r.scratch[:opHdrBytes]
	r.read(clk, pos, hdr)
	op = Op{
		Type:  hdr[0],
		Table: hdr[1],
		Slot:  binary.LittleEndian.Uint64(hdr[4:]),
		Key:   binary.LittleEndian.Uint64(hdr[12:]),
		Off:   int(binary.LittleEndian.Uint32(hdr[20:])),
	}
	dataLen := int(binary.LittleEndian.Uint32(hdr[24:]))
	pos += opHdrBytes
	if dataLen > 0 {
		if pos+dataLen > limit {
			return Op{}, pos, false
		}
		op.Data = make([]byte, dataLen)
		r.read(clk, pos, op.Data)
		pos += dataLen
	}
	return op, pos, true
}

// ScanReport classifies what a window scan saw. Torn and corrupt records are
// skipped (treated as uncommitted — the transaction's durable point was
// never reached intact), never replayed and never fatal: recovery proceeds
// on the surviving prefix and reports the damage.
type ScanReport struct {
	// Committed counts well-formed committed records returned for replay.
	Committed int
	// Torn counts committed-state slots whose structure is inconsistent
	// (lengths out of range, ops past the record end) — the signature of a
	// record that lost lines to a torn write or an unflushed cache.
	Torn int
	// Corrupt counts structurally valid records whose CRC32 failed — bit
	// damage the structure checks cannot see.
	Corrupt int
}

// Add sums o into r (aggregation across windows).
func (r *ScanReport) Add(o ScanReport) {
	r.Committed += o.Committed
	r.Torn += o.Torn
	r.Corrupt += o.Corrupt
}

// ReadRecords scans one thread's window (post-crash image) and returns the
// committed records plus a classification of what it skipped. Uncommitted
// and free slots are skipped silently — those transactions never touched any
// tuple (Algorithm 1 orders the state write before any in-place update).
// Committed slots are validated structurally and against their CRC before
// being returned; failures are classified in the report, never returned as
// records and never as an error — a damaged tail must not block recovery of
// the records that did survive.
func ReadRecords(space pmem.Space, clk *sim.Clock, base uint64, cfg Config) ([]Record, ScanReport) {
	cfg = cfg.withDefaults()
	w := &Window{space: space, base: base, cfg: cfg}
	var out []Record
	var rep ScanReport
	slotCap := cfg.SlotBytes - hdrBytes
	for i := 0; i < cfg.Slots; i++ {
		var hdr [40]byte
		space.Read(clk, w.slotOff(i), hdr[:])
		state := binary.LittleEndian.Uint64(hdr[hdrState:])
		if state != StateCommitted && state != StatePublished {
			continue
		}
		tid := binary.LittleEndian.Uint64(hdr[hdrTID:])
		nops := int(binary.LittleEndian.Uint32(hdr[hdrNops:]))
		slotLen := int(binary.LittleEndian.Uint32(hdr[hdrLen:]))
		extLen := int(binary.LittleEndian.Uint32(hdr[hdrExtLen:]))
		epoch := binary.LittleEndian.Uint64(hdr[hdrEpoch:])
		if slotLen < 0 || slotLen > slotCap || extLen < 0 || extLen > cfg.OverflowBytes ||
			nops < 0 || nops > (slotLen+extLen)/opHdrBytes {
			rep.Torn++
			continue
		}
		total := slotLen + extLen
		crc := crc32.Update(0, crc32.IEEETable, hdr[hdrTID:hdrTID+8])
		r := recordReader{space: space, slotOff: w.slotOff(i), ovfOff: w.ovfOff(i), slotCap: slotCap, crc: &crc, scratch: &w.scratch}
		rec := Record{TID: tid, State: state, Epoch: epoch}
		pos, torn := 0, false
		for k := 0; k < nops; k++ {
			var op Op
			var ok bool
			op, pos, ok = r.readOpBounded(clk, pos, total)
			if !ok {
				torn = true
				break
			}
			rec.Ops = append(rec.Ops, op)
		}
		if torn || pos != total {
			rep.Torn++
			continue
		}
		var cnt [20]byte
		binary.LittleEndian.PutUint32(cnt[0:], uint32(nops))
		binary.LittleEndian.PutUint32(cnt[4:], uint32(slotLen))
		binary.LittleEndian.PutUint32(cnt[8:], uint32(extLen))
		binary.LittleEndian.PutUint64(cnt[12:], epoch)
		crc = crc32.Update(crc, crc32.IEEETable, cnt[:])
		if !DisableChecksumVerify && crc != binary.LittleEndian.Uint32(hdr[hdrCRC:]) {
			rep.Corrupt++
			continue
		}
		rep.Committed++
		out = append(out, rec)
	}
	return out, rep
}

// Reset reformats the window's slot states to FREE through the cache
// (post-recovery reuse; BulkWrite would go stale against resident lines).
func (w *Window) Reset(clk *sim.Clock) {
	for i := 0; i < w.cfg.Slots; i++ {
		w.space.WriteU64(clk, w.slotOff(i)+hdrState, 0)
	}
	w.space.SFence(clk)
	w.cur = 0
	for i := range w.slotEpoch {
		w.slotEpoch[i] = 0
	}
}

// MaxTID returns the largest TID recorded in any slot header of the window,
// committed or not. Every transaction writes its TID at Begin, so the
// maximum across all windows is the newest TID ever issued — what recovery
// feeds to TIDGen.Restore.
func MaxTID(space pmem.Space, clk *sim.Clock, base uint64, cfg Config) uint64 {
	cfg = cfg.withDefaults()
	w := &Window{space: space, base: base, cfg: cfg}
	var max uint64
	for i := 0; i < cfg.Slots; i++ {
		var hdr [16]byte
		space.Read(clk, w.slotOff(i), hdr[:])
		state := binary.LittleEndian.Uint64(hdr[:8])
		tid := binary.LittleEndian.Uint64(hdr[8:])
		if state != StateFree && tid > max {
			max = tid
		}
	}
	return max
}

// SortRecords orders records by TID ascending — the replay order. Tuple
// timestamp guards make replay idempotent, but ordering keeps the final
// state equal to the newest committed write even when several surviving
// records touch the same tuple.
func SortRecords(recs []Record) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].TID < recs[j].TID })
}
