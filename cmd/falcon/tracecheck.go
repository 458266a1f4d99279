package main

import (
	"fmt"
	"io"
	"os"

	"falcon/internal/obs"
)

// runTracecheck validates Chrome trace-event JSON files produced by the
// -trace flag (or by the crash matrix's -trace-dir): the schema checks that
// Perfetto / chrome://tracing rely on, without loading a UI. Exit status 0
// means every file passed.
func runTracecheck(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: falcon tracecheck <trace.json> [...]")
		return 2
	}
	exit := 0
	for _, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = obs.ValidateChromeTrace(data)
		}
		if err != nil {
			fmt.Fprintf(stdout, "%s: INVALID: %v\n", path, err)
			exit = 1
			continue
		}
		fmt.Fprintf(stdout, "%s: ok\n", path)
	}
	return exit
}
