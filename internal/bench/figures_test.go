package bench

import (
	"bytes"
	"os"
	"testing"
)

// TestRecoveryStudyGolden renders the recovery study at records {2000, 5000}
// with one worker and holds it to testdata/recovery_study.golden, first
// printed by the pre-catalogue recovery command on the commit that made
// out-of-place recovery deterministic (before that the ZenS rows moved from
// run to run). -update rewrites it, for a change that means to move virtual
// time and says why.
func TestRecoveryStudyGolden(t *testing.T) {
	cf := &CommonFlags{Stats: true}
	fig, reports := Recovery(Scale{Threads: []int{1}, Txns: 20, RecoveryRecords: []uint64{2000, 5000}, Flags: cf})
	var out, errs bytes.Buffer
	if err := Render(&out, &errs, fig, 1, cf); err != nil {
		t.Fatalf("render: %v\n%s", err, errs.String())
	}
	if *updateGolden {
		if err := os.WriteFile("testdata/recovery_study.golden", out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/recovery_study.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("recovery study moved.\n--- got ---\n%s\n--- want ---\n%s", out.String(), want)
	}
	for i, rep := range reports {
		if rep == nil {
			t.Fatalf("cell %d left no recovery report", i)
		}
	}
}
