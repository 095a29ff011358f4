package tracex

import (
	"context"
	"testing"
)

// TestCalibrationCoverage is the interval-calibration acceptance bar: on a
// reduced app × machine matrix, the 90% prediction interval's held-out
// empirical coverage must land in [0.75, 1.0]. Too low means the posterior
// is overconfident; the upper bound is trivially satisfied but pins the
// harness to a real fraction.
func TestCalibrationCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration matrix in -short mode")
	}
	eng := NewEngine()
	defer eng.Close()
	rep, err := eng.CalibrateIntervals(context.Background(), CalibrationConfig{
		Apps:     []string{"stencil3d", "cgsolve"},
		Machines: []string{"bluewaters", "kraken"},
		Collect:  CollectOptions{Sampling: FixedSampling(20000, 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("expected 4 calibration cells, got %d", len(rep.Cells))
	}
	for _, cell := range rep.Cells {
		if cell.Actual <= 0 || cell.Predicted <= 0 {
			t.Errorf("cell %s/%s has non-positive runtimes: %+v", cell.App, cell.Machine, cell)
		}
		if len(cell.Bands) != len(DefaultIntervalLevels()) {
			t.Errorf("cell %s/%s has %d bands, want %d", cell.App, cell.Machine, len(cell.Bands), len(DefaultIntervalLevels()))
		}
		for _, b := range cell.Bands {
			if !(b.Lo <= cell.Predicted && cell.Predicted <= b.Hi) {
				t.Errorf("cell %s/%s: band %+v does not bracket the prediction %.3f", cell.App, cell.Machine, b, cell.Predicted)
			}
		}
	}
	cov := rep.CoverageAt(0.9)
	if cov < 0.75 || cov > 1.0 {
		t.Errorf("90%% interval coverage = %.3f, want within [0.75, 1.0]", cov)
	}
	// Wider levels can never cover less than narrower ones on the same cells.
	if c50, c95 := rep.CoverageAt(0.5), rep.CoverageAt(0.95); c50 > cov || cov > c95 {
		t.Errorf("coverage not monotone in level: 50%%=%.3f 90%%=%.3f 95%%=%.3f", c50, cov, c95)
	}
}
