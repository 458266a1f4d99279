package heap

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"

	"falcon/internal/pmem"
	"falcon/internal/sim"
)

// TestPublishLineBudget: publishing into a cold slot reads nothing from the
// media — every line of the slot is stored whole, so none is filled first —
// where the payload, timestamp and flag stored one by one fill the lines they
// cover partially.
func TestPublishLineBudget(t *testing.T) {
	for _, size := range []int{40, 100, 1024} {
		h, sys := newTestHeap(t, Config{SlotSize: size, NSlots: 8, NThreads: 1})
		clk := sim.NewClock()
		payload := bytes.Repeat([]byte{0x5A}, size)
		var img []byte
		lines := h.stride / pmem.LineSize
		cost := func(store func(slot uint64)) pmem.Snapshot {
			slot, err := h.Alloc(clk, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			before := sys.Dev.Stats().Snapshot()
			store(slot)
			return sys.Dev.Stats().Snapshot().Sub(before)
		}
		d := cost(func(slot uint64) { h.Publish(clk, slot, 7, payload, &img) })
		if d.MediaReads != 0 || d.CacheMisses != lines || d.CacheHits != 0 {
			t.Errorf("%d B: Publish into a cold slot read %d blocks, missed %d lines and hit %d; want 0, %d, 0",
				size, d.MediaReads, d.CacheMisses, d.CacheHits, lines)
		}
		d = cost(func(slot uint64) {
			h.WritePayload(clk, slot, payload)
			h.WriteTS(clk, slot, 7)
			h.writeFlagsWord(clk, slot, FlagOccupied)
		})
		if d.MediaReads == 0 {
			t.Errorf("%d B: the three partial stores read nothing from the media; the budget above proves nothing", size)
		}
	}
}

// slotState is what a slot holds: the timestamp, the flags byte, and the
// payload it was published with.
type slotState struct {
	ts      uint64
	flags   uint8
	payload []byte
}

// slotOp is one step of slotHistory on one slot: 'a' allocates it (popping it
// off the deleted list clears its flags), 'p' publishes the payload filled with
// fill under ts, 'd' and 'i' mark it deleted or invalidated at ts, 'l' links it
// onto the deleted list.
type slotOp struct {
	kind     byte
	slot, ts uint64
	fill     byte
}

// slotHistory publishes two versions, supersedes one and deletes the other,
// recycles both slots and does it again, so every op also runs on a slot that
// held a tuple before.
var slotHistory = []slotOp{
	{'a', 0, 0, 0}, {'p', 0, 1 << 8, 1}, {'a', 1, 0, 0}, {'p', 1, 2 << 8, 2},
	{'i', 0, 3 << 8, 0}, {'l', 0, 0, 0}, {'d', 1, 4 << 8, 0}, {'l', 1, 0, 0},
	{'a', 0, 0, 0}, {'p', 0, 5 << 8, 3}, {'a', 1, 0, 0}, {'p', 1, 6 << 8, 4},
	{'d', 0, 7 << 8, 0}, {'i', 1, 8 << 8, 0},
}

const crashSlotSize = 200 // four lines a slot

func fillPayload(fill byte) []byte { return bytes.Repeat([]byte{fill}, crashSlotSize) }

// next is the model: the slot states once op has happened.
func next(m map[uint64]slotState, op slotOp) map[uint64]slotState {
	m = maps.Clone(m)
	s := m[op.slot]
	switch op.kind {
	case 'a':
		s.flags = 0
	case 'p':
		s = slotState{op.ts, FlagOccupied, fillPayload(op.fill)}
	case 'd':
		s.ts, s.flags = op.ts, FlagOccupied|FlagDeleted
	case 'i':
		s.ts, s.flags = op.ts, FlagOccupied|FlagInvalidated
	}
	m[op.slot] = s
	return m
}

// runSlotsUntilCrash applies slotHistory under plan (under ADR each op is
// followed by the slot's hinted flush and a fence, as an engine persists what
// it stored) and returns the system, the model before the op in flight and
// that op's index (len(slotHistory) if the plan never fired).
func runSlotsUntilCrash(t *testing.T, mode pmem.Mode, plan *pmem.FaultPlan) (sys *pmem.System, model map[uint64]slotState, at int) {
	// A cache of 16 lines and a buffer of four blocks, so lines are evicted
	// and blocks drained between the ops.
	sys = pmem.NewSystem(pmem.Config{Mode: mode, DeviceBytes: 1 << 20, CacheBytes: 1 << 10, CacheWays: 2, XPBufferBytes: 1 << 10, XPBanks: 1})
	h, err := New(sys.Space, 0, Config{SlotSize: crashSlotSize, NSlots: 8, NThreads: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetFaults(plan)
	clk := sim.NewClock()
	model = map[uint64]slotState{}
	var img []byte
	defer func() {
		if r := recover(); r != nil && !pmem.IsInjectedCrash(r) {
			panic(r)
		}
	}()
	for at = 0; at < len(slotHistory); at++ {
		op := slotHistory[at]
		switch op.kind {
		case 'a':
			if got, err := h.Alloc(clk, 0, 1); err != nil || got != op.slot {
				t.Fatalf("op %d: alloc = %d, %v; the history expects slot %d", at, got, err, op.slot)
			}
		case 'p':
			h.Publish(clk, op.slot, op.ts, fillPayload(op.fill), &img)
		case 'd':
			h.MarkDeleted(clk, op.slot, op.ts)
		case 'i':
			h.MarkInvalidated(clk, op.slot, op.ts)
		case 'l':
			h.Link(clk, op.slot, 0)
		}
		if mode == pmem.ADR {
			h.CLWBSlot(clk, op.slot, 0, crashSlotSize)
			sys.Space.SFence(clk)
		}
		model = next(model, op)
	}
	return sys, model, at
}

// TestSlotCrashAtEveryStore crashes at every store, write-back, eviction and
// buffer drain of slotHistory, under eADR and under ADR (where each op is
// flushed, line 0 last), and reads the slots back from the media: each one is
// as the model has it, except the slot of the op in flight, which is as before
// that op or as after it — never occupied over a payload of another version,
// never a new timestamp under old flags or old flags under a new timestamp.
func TestSlotCrashAtEveryStore(t *testing.T) {
	for _, mode := range []pmem.Mode{pmem.EADR, pmem.ADR} {
		t.Run(map[pmem.Mode]string{pmem.EADR: "eADR", pmem.ADR: "ADR"}[mode], func(t *testing.T) {
			count := &pmem.FaultPlan{}
			runSlotsUntilCrash(t, mode, count)
			inFlight := map[string]int{}
			trials, tailFirst := 0, 0 // tailFirst: a publish's tail durable, its line 0 not yet
			for ev := pmem.FaultEvent(0); int(ev) < pmem.NumFaultEvents; ev++ {
				for n := uint64(1); n <= count.Counts()[ev]; n++ {
					sys, model, at := runSlotsUntilCrash(t, mode, &pmem.FaultPlan{Event: ev, N: n})
					if at == len(slotHistory) {
						t.Fatalf("no crash at %s %d", ev, n)
					}
					op := slotHistory[at]
					trials++
					inFlight[string(op.kind)]++
					clk := sim.NewClock()
					h, err := Open(sys.Crash().Space, clk, 0)
					if err != nil {
						t.Fatal(err)
					}
					after := next(model, op)
					for slot := uint64(0); slot < 2; slot++ {
						payload := make([]byte, crashSlotSize)
						h.ReadPayload(clk, slot, payload)
						got := slotState{h.ReadTS(clk, slot), h.ReadFlags(clk, slot), payload}
						want := []slotState{model[slot]}
						if slot == op.slot {
							want = append(want, after[slot])
						}
						if !slices.ContainsFunc(want, got.is) {
							t.Fatalf("crash at %s %d, op %d %c on slot %d in flight: slot %d holds ts %#x flags %#x payload %s; want %s",
								ev, n, at, op.kind, op.slot, slot, got.ts, got.flags, lineFills(payload), describe(want))
						}
						if op.kind == 'p' && slot == op.slot && got.flags == 0 && bytes.Equal(payload[pmem.LineSize-slotHdrBytes:], after[slot].payload[pmem.LineSize-slotHdrBytes:]) {
							tailFirst++
						}
					}
				}
			}
			t.Logf("%d crash points (in flight per op: %v), %d between a publish's two stores", trials, inFlight, tailFirst)
			for _, k := range []string{"p", "d", "i"} {
				if inFlight[k] == 0 {
					t.Errorf("no crash point fell inside a %q", k)
				}
			}
			if tailFirst == 0 {
				t.Error("no crash point fell between a publish's payload tail and its line 0")
			}
		})
	}
}

// is reports whether the durable slot s reads as state w: timestamp and flags
// equal, and the payload too where w is a published version.
func (s slotState) is(w slotState) bool {
	return s.ts == w.ts && s.flags == w.flags && (w.flags&FlagOccupied == 0 || bytes.Equal(s.payload, w.payload))
}

// lineFills renders a payload as the fill byte of each slot line it covers,
// which is all a torn version differs in.
func lineFills(p []byte) string {
	var b bytes.Buffer
	for line := 0; max(0, line*pmem.LineSize-slotHdrBytes) < len(p); line++ {
		fmt.Fprintf(&b, "%d", p[max(0, line*pmem.LineSize-slotHdrBytes)])
	}
	return b.String()
}

func describe(states []slotState) string {
	var b bytes.Buffer
	for i, w := range states {
		if i > 0 {
			b.WriteString(" or ")
		}
		fmt.Fprintf(&b, "ts %#x flags %#x payload %s", w.ts, w.flags, lineFills(w.payload))
	}
	return b.String()
}
