package synthapp

import "testing"

func TestCGSolveEndToEndShape(t *testing.T) {
	app := CGSolve()
	if _, err := app.Work(8); err != nil {
		t.Fatalf("Work(min): %v", err)
	}
	// CG is allreduce-heavy: collectives on every rank.
	if prog := compile(t, app, 64); prog.Collectives == 0 {
		t.Error("cgsolve program has no collectives")
	}
	// SpMV dominates the reference counts.
	works, err := app.Work(1024)
	if err != nil {
		t.Fatal(err)
	}
	if works[0].Spec.Func != "spmv" {
		t.Fatalf("first block is %s", works[0].Spec.Func)
	}
	for _, w := range works[1:] {
		if w.Refs > works[0].Refs {
			t.Errorf("%s out-references spmv", w.Spec.Func)
		}
	}
}
