package main

import (
	"fmt"
	"os"
	"strings"

	"blackjack/internal/calib"
	"blackjack/internal/experiments"
)

// runCalibrate evaluates the paper calibration spec against a fresh suite
// run, rendering the per-claim verdict table to stdout (and JSON to
// jsonPath when set). DRIFT verdicts warn on stderr; any FAIL exits 5.
func runCalibrate(opts experiments.Options, jsonPath string) {
	fmt.Fprintf(os.Stderr, "bjexp: calibrating %d claims against %d benchmarks x 4 modes x %d instructions...\n",
		len(calib.PaperSpec().Claims), len(opts.Benchmarks), opts.Instructions)
	rep, err := experiments.Calibrate(opts)
	if err != nil {
		fatalCampaign(err, opts)
	}
	rep.Table().Render(os.Stdout)
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fatal(err)
		}
		if err := rep.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "bjexp: wrote calibration report to %s\n", jsonPath)
	}
	if drifting := rep.Drifting(); len(drifting) > 0 {
		fmt.Fprintf(os.Stderr, "bjexp: calibration drift on %s\n", strings.Join(drifting, ", "))
	}
	if rep.Failed() {
		fmt.Fprintln(os.Stderr, "bjexp: calibration FAILED")
		os.Exit(5)
	}
}
