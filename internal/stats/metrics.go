package stats

import "math"

// AbsRelErr returns |predicted-actual| / |actual|. When actual is zero the
// error is defined as 0 if predicted is also zero and +Inf otherwise, which
// matches how the paper treats "absolute relative error" for count data.
func AbsRelErr(predicted, actual float64) float64 {
	if actual == 0 {
		if predicted == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(predicted-actual) / math.Abs(actual)
}

// SSE returns the sum of squared residuals between predictions and
// observations. The slices must have equal length.
func SSE(predicted, actual []float64) float64 {
	var sse float64
	for i := range predicted {
		d := predicted[i] - actual[i]
		sse += d * d
	}
	return sse
}

// RMSE returns the root mean squared error. It returns 0 for empty input.
func RMSE(predicted, actual []float64) float64 {
	if len(predicted) == 0 {
		return 0
	}
	return math.Sqrt(SSE(predicted, actual) / float64(len(predicted)))
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// R2 returns the coefficient of determination for predictions against
// observations. A constant observation series yields R2 = 1 when matched
// exactly and 0 otherwise (total variance is zero, so the usual definition
// degenerates).
func R2(predicted, actual []float64) float64 {
	if len(actual) == 0 {
		return 0
	}
	m := Mean(actual)
	var sst float64
	for _, y := range actual {
		d := y - m
		sst += d * d
	}
	sse := SSE(predicted, actual)
	if sst == 0 {
		if sse == 0 {
			return 1
		}
		return 0
	}
	return 1 - sse/sst
}
