package tracex

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"tracex/internal/extrap"
)

// The intervals golden pins intervals-on extrapolation bit for bit across
// the five proxy apps. Each app is extrapolated under the canonical and
// the extended forms, each with cross-validation off and on. For every
// element fit it records the form, the parameters, the extrapolated value,
// the mixture mean and variance and the posterior weights; for every run
// the synthesized signature's uncertainty and the runtime intervals
// predicted from it. Floats are written in their shortest round-trip
// decimal form, so a drift of one ulp anywhere fails.

// goldenIntervalInputs are each app's input counts (those of the
// predictions golden) and one target beyond them.
var goldenIntervalInputs = map[string]struct {
	counts []int
	target int
}{
	"specfem3d":     {[]int{64, 216, 512}, 1000},
	"uh3d":          {[]int{1024, 1536, 2048}, 4096},
	"stencil3d":     {[]int{27, 64, 1000}, 1728},
	"stencil3dweak": {[]int{8, 125, 512}, 1000},
	"cgsolve":       {[]int{16, 100, 343}, 1000},
}

type goldenIntervalRun struct {
	App       string   `json:"app"`
	Inputs    []int    `json:"inputs"`
	Target    int      `json:"target"`
	Forms     string   `json:"forms"`
	CV        bool     `json:"cv"`
	Elements  []string `json:"elements"`
	Dof       int      `json:"dof"`
	Vars      []string `json:"vars"`
	Runtime   string   `json:"runtime"`
	Intervals []string `json:"intervals"`
}

// gf renders a float in its shortest exact round-trip form.
func gf(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func gfs(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = gf(v)
	}
	return strings.Join(parts, ",")
}

// goldenElement renders one element fit as a single line.
func goldenElement(f extrap.ElementFit) string {
	w := "-"
	if f.Weights != nil {
		names := make([]string, 0, len(f.Weights))
		for n := range f.Weights {
			names = append(names, n)
		}
		sort.Strings(names)
		parts := make([]string, len(names))
		for i, n := range names {
			parts[i] = n + ":" + gf(f.Weights[n])
		}
		w = strings.Join(parts, ",")
	}
	return fmt.Sprintf("%d/%s %s p=%s r2=%s rmse=%s x=%s mean=%s var=%s w=%s",
		f.BlockID, f.Element, f.Form, gfs(f.Params), gf(f.R2), gf(f.RMSE),
		gf(f.Extrapolated), gf(f.Mean), gf(f.Var), w)
}

func TestIntervalsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("collects 15 signatures and predicts 20 extrapolations")
	}
	eng := testEngine
	ctx := context.Background()
	cfg, err := LoadMachine("bluewaters")
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name  string
		forms []Form
	}{{"canonical", nil}, {"extended", ExtendedForms()}}
	var got []goldenIntervalRun
	for _, name := range Apps() {
		app, err := LoadApp(name)
		if err != nil {
			t.Fatal(err)
		}
		in, ok := goldenIntervalInputs[name]
		if !ok {
			t.Fatalf("no golden input counts for app %s", name)
		}
		var inputs []*Signature
		for _, c := range in.counts {
			sig, err := eng.CollectSignature(ctx, app, c, cfg, goldenPredictOpt)
			if err != nil {
				t.Fatalf("%s@%d: %v", name, c, err)
			}
			inputs = append(inputs, sig)
		}
		for _, v := range variants {
			for _, cv := range []bool{false, true} {
				res, err := eng.Extrapolate(ctx, inputs, in.target,
					ExtrapOptions{Forms: v.forms, CrossValidate: cv, Intervals: true})
				if err != nil {
					t.Fatalf("%s→%d %s cv=%v: %v", name, in.target, v.name, cv, err)
				}
				run := goldenIntervalRun{
					App: name, Inputs: in.counts, Target: in.target, Forms: v.name, CV: cv,
				}
				for _, f := range res.Fits {
					run.Elements = append(run.Elements, goldenElement(f))
				}
				uc := res.Signature.Uncertainty
				if uc == nil {
					t.Fatalf("%s→%d %s cv=%v: no uncertainty", name, in.target, v.name, cv)
				}
				run.Dof = uc.Dof
				for _, b := range uc.Blocks {
					run.Vars = append(run.Vars, fmt.Sprintf("%d: %s", b.ID, gfs(b.Vars)))
				}
				pred, err := eng.Predict(ctx, PredictRequest{
					Signature: res.Signature, App: app, Machine: &cfg, Intervals: true,
				})
				if err != nil {
					t.Fatalf("predict %s@%d %s cv=%v: %v", name, in.target, v.name, cv, err)
				}
				run.Runtime = gf(pred.Runtime)
				for _, iv := range pred.Intervals {
					run.Intervals = append(run.Intervals, fmt.Sprintf("%s %s %s", gf(iv.Level), gf(iv.Lo), gf(iv.Hi)))
				}
				got = append(got, run)
			}
		}
	}
	b, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "intervals.golden.json", append(b, '\n'))
}
