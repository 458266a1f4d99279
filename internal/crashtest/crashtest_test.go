package crashtest

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"testing"

	"falcon/internal/bench"
	"falcon/internal/core"
	"falcon/internal/pmem"
	"falcon/internal/wal"
)

func seedsForTest(t *testing.T) int {
	if testing.Short() {
		return 12
	}
	return 200
}

var updateCounts = flag.Bool("update", false, "rewrite this lane's rows of testdata/crash_matrix.json and testdata/server_cells.json from this binary")

const countsPath = "testdata/crash_matrix.json"

// cellCounts is what the pinned table holds per cell: how many seeds crashed,
// how many ran torn-write and flipped-byte injection, what the recovery
// scanner classified, and how many published records the epoch marker gated
// out. The harness is seeded and single-threaded, so every figure is exact.
type cellCounts struct {
	Crashes, Torn, Corrupt, DetectedTorn, DetectedCorrupt, DroppedUnsealed int
}

func countsOf(r CellResult) cellCounts {
	return cellCounts{r.Crashes, r.Torn, r.Corrupt, r.DetectedTorn, r.DetectedCorrupt, r.DroppedUnsealed}
}

// laneName keys the pinned table by seed count: "seeds-200" is the full lane,
// "seeds-12" the -short one.
func laneName(seeds int) string { return fmt.Sprintf("seeds-%d", seeds) }

// checkPinned compares a finished cell with its pinned row.
func checkPinned(t *testing.T, want map[string]cellCounts, res CellResult) {
	t.Helper()
	if *updateCounts {
		return
	}
	if w, ok := want[res.Cell.String()]; !ok || w != countsOf(res) {
		t.Errorf("counts moved: pinned %+v (present %v), got %+v", w, ok, countsOf(res))
	}
}

func readCounts(t *testing.T) map[string]map[string]cellCounts {
	return readPinned[cellCounts](t, countsPath)
}

// readPinned loads a pinned table, lane → cell → counts.
func readPinned[C any](t *testing.T, path string) map[string]map[string]C {
	t.Helper()
	table := map[string]map[string]C{}
	b, err := os.ReadFile(path)
	if err != nil {
		if *updateCounts {
			return table
		}
		t.Fatalf("%v (generate with -update, once with and once without -short)", err)
	}
	if err := json.Unmarshal(b, &table); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return table
}

// writeLane replaces one lane of the pinned table at path (the -update flow).
func writeLane[C any](t *testing.T, path string, table map[string]map[string]C, lane string, got map[string]C) {
	t.Helper()
	table[lane] = got
	b, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMatrix is the acceptance gate: every engine preset under eADR and
// ADR must survive seeded mid-transaction crashes — including torn-write and
// flipped-byte corruption seeds under ADR — with its oracle intact.
//
// Beside the verdicts it pins the counts: testdata/crash_matrix.json holds
// one row per cell and lane, asserted exactly, so a change that shifts where
// crashes land (an extra store, a reordered flush) shows as a moved number and
// not only as a violation. Regenerate a lane's rows with
//
//	go test ./internal/crashtest -run TestCrashMatrix -update [-short]
func TestCrashMatrix(t *testing.T) {
	seeds := seedsForTest(t)
	table := readCounts(t)
	want := table[laneName(seeds)]
	var mu sync.Mutex
	got := map[string]cellCounts{}
	t.Run("cells", func(t *testing.T) { // returns once the parallel cells are done
		for _, cell := range Matrix() {
			cell := cell
			t.Run(cell.String(), func(t *testing.T) {
				t.Parallel()
				res := RunCell(cell, Options{Seeds: seeds})
				mu.Lock()
				got[cell.String()] = countsOf(res)
				mu.Unlock()
				checkPinned(t, want, res)
				if res.Crashes == 0 {
					t.Errorf("no injected crash ever fired across %d seeds", seeds)
				}
				if cell.Mode == pmem.ADR && res.Torn == 0 {
					t.Errorf("no torn-write seeds ran under ADR")
				}
				if cell.Mode == pmem.ADR && res.Corrupt == 0 {
					t.Errorf("no corruption seeds ran under ADR")
				}
				for _, v := range res.Violations {
					t.Errorf("seed %d: %s\n  repro: %s", v.Seed, v.Detail, cell.Repro(v.Seed))
				}
			})
		}
	})
	if *updateCounts {
		writeLane(t, countsPath, table, laneName(seeds), got)
	}
}

func matrixCell(t *testing.T, name string, mode pmem.Mode) Cell {
	t.Helper()
	for _, c := range Matrix() {
		if c.Config.Name == name && c.Mode == mode {
			return c
		}
	}
	t.Fatalf("no matrix cell %q / %s", name, ModeName(mode))
	return Cell{}
}

// TestGroupCommitMidEpochCrash pins the crash semantics of leader-based group
// commit. Under ADR an acknowledged transaction sits in an unsealed durability
// epoch until its leader seals — a crash landing in that window (including
// mid-seal, between the record-train flush and the marker publish) must drop
// the whole epoch tail, never a prefix of a transaction, and the containment
// oracle must hold throughout. The recovery reports prove the window was
// actually hit: DroppedUnsealed counts published records gated out by the
// recovered epoch marker. Under eADR the publish point is already durable, so
// the same seeds must replay everything (zero drops) against the strict
// oracle.
//
// The evidence cell is the flushed-log preset: its seal trains force record
// bytes to the media, so an unsealed record is visible to the recovery
// scanner. Small-log-window presets (Falcon) keep records cached by design —
// their unsealed records vanish wholesale under ADR instead of being gated,
// which the matrix covers but which leaves no drop counter to assert on.
func TestGroupCommitMidEpochCrash(t *testing.T) {
	seeds := seedsForTest(t)
	want := readCounts(t)[laneName(seeds)]

	t.Run("ADR", func(t *testing.T) {
		t.Parallel()
		cell := matrixCell(t, "Inp+GC", pmem.ADR)
		if cell.Strict() {
			t.Fatalf("ADR group commit acks before the epoch seals; it must use the containment oracle")
		}
		res := RunCell(cell, Options{Seeds: seeds})
		checkPinned(t, want, res)
		for _, v := range res.Violations {
			t.Errorf("seed %d: %s\n  repro: %s", v.Seed, v.Detail, cell.Repro(v.Seed))
		}
		if res.Crashes == 0 {
			t.Fatalf("no injected crash fired across %d seeds", seeds)
		}
		if res.DroppedUnsealed == 0 {
			t.Errorf("no seed crashed mid-epoch across %d seeds: recovery never dropped an unsealed record, so the group-commit crash window went unexercised", seeds)
		}
	})

	t.Run("eADR", func(t *testing.T) {
		t.Parallel()
		cell := matrixCell(t, "Inp+GC", pmem.EADR)
		if !cell.Strict() {
			t.Fatalf("eADR group commit is physically durable at publish; it must be checked strictly")
		}
		res := RunCell(cell, Options{Seeds: seeds})
		checkPinned(t, want, res)
		for _, v := range res.Violations {
			t.Errorf("seed %d: %s\n  repro: %s", v.Seed, v.Detail, cell.Repro(v.Seed))
		}
		if res.DroppedUnsealed != 0 {
			t.Errorf("eADR recovery dropped %d published records; the persistent cache must make every publish durable", res.DroppedUnsealed)
		}
	})
}

// TestGroupCommitCorruptRecordDetected keeps the recovery scanner's corrupt
// record evidence for group commit under ADR in the -short lane, whose twelve
// Inp+GC/adr seeds detect one corrupt record or none as the fault draw
// shifts: seed 25 of the full lane, the first past the twelve, flips a byte
// inside a published log record, and recovery must classify it as corrupt
// and still satisfy the containment oracle.
func TestGroupCommitCorruptRecordDetected(t *testing.T) {
	const seed = 25
	cell := matrixCell(t, "Inp+GC", pmem.ADR)
	res := RunCell(cell, Options{Seeds: 1, FirstSeed: seed})
	for _, v := range res.Violations {
		t.Errorf("seed %d: %s\n  repro: %s", v.Seed, v.Detail, cell.Repro(v.Seed))
	}
	if res.Crashes != 1 || res.Corrupt != 1 || res.DetectedCorrupt == 0 {
		t.Errorf("seed %d: %d crashes, %d corruption seeds, %d corrupt records detected; want 1, 1, at least 1",
			seed, res.Crashes, res.Corrupt, res.DetectedCorrupt)
	}
}

func presetByName(t *testing.T, name string) core.Config {
	t.Helper()
	for _, cfg := range bench.EngineConfigs() {
		if cfg.Name == name {
			return cfg
		}
	}
	t.Fatalf("no preset %q", name)
	return core.Config{}
}

// findLastCommittedUpdate scans the log windows on the raw media for the
// committed record with the highest TID whose first op is an update, and
// returns the media offset of that op's first data byte. Targeting the
// highest TID guarantees no later record re-writes the same row during
// replay, so a flipped byte here must surface (absent checksums).
func findLastCommittedUpdate(dev *pmem.Device, ecfg core.Config, winBase uint64) (off uint64, ok bool) {
	const (
		hdrBytes   = 64 // record header: state, tid, counts, crc
		opHdrBytes = 28 // op header: type, table, pad, slot, key, off, len
	)
	perThread := wal.BytesNeeded(ecfg.Window)
	var bestTID uint64
	for th := 0; th < ecfg.Threads; th++ {
		for i := 0; i < ecfg.Window.Slots; i++ {
			slotBase := winBase + uint64(th)*perThread + uint64(i)*uint64(ecfg.Window.SlotBytes)
			var hdr [hdrBytes]byte
			dev.RawRead(slotBase, hdr[:])
			state := binary.LittleEndian.Uint64(hdr[0:])
			tid := binary.LittleEndian.Uint64(hdr[8:])
			nops := binary.LittleEndian.Uint32(hdr[16:])
			if state != wal.StateCommitted || nops == 0 {
				continue
			}
			var op [opHdrBytes]byte
			dev.RawRead(slotBase+hdrBytes, op[:])
			dataLen := binary.LittleEndian.Uint32(op[24:])
			if op[0] != wal.OpUpdate || dataLen == 0 {
				continue
			}
			if tid > bestTID {
				bestTID = tid
				off = slotBase + hdrBytes + opHdrBytes
				ok = true
			}
		}
	}
	return off, ok
}

// TestChecksumCatchesFlippedRecord corrupts one committed, media-resident
// log record post-crash and checks both sides of the checksum guarantee:
// with verification on, the record is classified corrupt and skipped without
// violating containment; with verification disabled, the garbage replays and
// the oracle demonstrably fails.
func TestChecksumCatchesFlippedRecord(t *testing.T) {
	cell := Cell{Config: presetByName(t, "Inp"), Mode: pmem.ADR}

	run := func(disable bool) (violations []string, corrupt int) {
		m := newModel()
		e, err := buildCell(cell, cellSpecs(), m.loadRow)
		if err != nil {
			t.Fatal(err)
		}
		if crashed := runWorkload(e, m, genOps(txnBudget, cellThreads)); crashed {
			t.Fatal("unexpected crash without a fault plan")
		}
		ecfg := e.Config() // defaults applied: window geometry resolved
		winBase, _ := e.LogWindowRange()
		sys2 := e.System().Crash()

		off, ok := findLastCommittedUpdate(sys2.Dev, ecfg, winBase)
		if !ok {
			t.Fatal("no committed update record found in the window")
		}
		var b [1]byte
		sys2.Dev.RawRead(off, b[:])
		b[0] ^= 0x40
		sys2.Dev.RawWrite(off, b[:])

		if disable {
			wal.DisableChecksumVerify = true
			defer func() { wal.DisableChecksumVerify = false }()
		}
		e2, rep, err := core.Recover(sys2, cellConfig(cell.Config))
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		// A deliberately corrupted record voids exactness for its rows; the
		// containment oracle is what the checksum must preserve — and what
		// its absence must break.
		return verify(e2, m, false), rep.CorruptRecords
	}

	viol, corrupt := run(false)
	if corrupt == 0 {
		t.Errorf("checksum verification did not flag the flipped record")
	}
	if len(viol) != 0 {
		t.Errorf("containment violated with checksums on: %v", viol)
	}

	viol, _ = run(true)
	if len(viol) == 0 {
		t.Errorf("checksum-disabled recovery replayed a corrupt record without any oracle violation — the checksum is not load-bearing")
	}
}
