package falcon_test

import (
	"os"
	"strings"
	"testing"
)

// TestGeneratedSectionsAreFindable checks that EXPERIMENTS.md holds each
// section `make phase-tables` writes, between one begin and one end marker in
// that order. bench.SpliceMarkdown appends a section it cannot find at the end
// of the file, so a lost marker would move the tables without a word.
func TestGeneratedSectionsAreFindable(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	for _, name := range []string{"phase-shares", "phase-shares-groupcommit", "hot-key-heat"} {
		begin, end := "<!-- generated:"+name+":begin -->", "<!-- generated:"+name+":end -->"
		if nb, ne := strings.Count(text, begin), strings.Count(text, end); nb != 1 || ne != 1 {
			t.Errorf("%s: %d begin and %d end markers, want one each", name, nb, ne)
			continue
		}
		if strings.Index(text, begin) > strings.Index(text, end) {
			t.Errorf("%s: end marker before begin marker", name)
		}
	}
}
