package addrgen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mkBiased(t *testing.T, frac float64) *Biased {
	t.Helper()
	hot, err := NewRandom(0, 64<<10, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewRandom(1<<30, 16<<20, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBiased(hot, cold, frac)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBiasedFractionExact(t *testing.T) {
	// Bresenham accumulation delivers the hot fraction exactly over long
	// streams, without randomness.
	for _, frac := range []float64{0.0, 0.125, 0.33, 0.5, 0.875, 1.0} {
		b := mkBiased(t, frac)
		const n = 100_000
		hot := 0
		for i := 0; i < n; i++ {
			if b.Next() < 1<<30 {
				hot++
			}
		}
		got := float64(hot) / n
		if math.Abs(got-frac) > 1.0/n*2 {
			t.Errorf("frac %.3f: measured %.5f", frac, got)
		}
	}
}

func TestBiasedValidation(t *testing.T) {
	hot, _ := NewStride(0, 8, 64)
	cold, _ := NewStride(1<<20, 8, 64)
	if _, err := NewBiased(hot, cold, -0.1); err == nil {
		t.Error("negative fraction accepted")
	}
	if _, err := NewBiased(hot, cold, 1.1); err == nil {
		t.Error("fraction above 1 accepted")
	}
	if _, err := NewBiased(nil, cold, 0.5); err == nil {
		t.Error("nil hot accepted")
	}
	if _, err := NewBiased(hot, nil, 0.5); err == nil {
		t.Error("nil cold accepted")
	}
}

func TestBiasedResetReplays(t *testing.T) {
	b := mkBiased(t, 0.37)
	first, second := make([]uint64, 500), make([]uint64, 500)
	FillBatch(b, first)
	b.Reset()
	FillBatch(b, second)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}

func TestBiasedAccessors(t *testing.T) {
	b := mkBiased(t, 0.25)
	if b.Name() != "biased(random,random)" {
		t.Errorf("Name = %q", b.Name())
	}
	if got, want := b.WorkingSet(), uint64(64<<10+16<<20); got != want {
		t.Errorf("WorkingSet = %d, want %d", got, want)
	}
}

// Property: the measured hot fraction matches the configured one within
// 1/n for any fraction, and every address belongs to exactly one region.
func TestBiasedPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		frac := r.Float64()
		hot, err := NewRandom(0, 8<<10, 8, seed)
		if err != nil {
			return false
		}
		cold, err := NewRandom(1<<30, 8<<10, 8, seed+1)
		if err != nil {
			return false
		}
		b, err := NewBiased(hot, cold, frac)
		if err != nil {
			return false
		}
		const n = 10_000
		hotCount := 0
		for i := 0; i < n; i++ {
			a := b.Next()
			inHot := a < 8<<10
			inCold := a >= 1<<30 && a < 1<<30+8<<10
			if inHot == inCold {
				return false // must be in exactly one region
			}
			if inHot {
				hotCount++
			}
		}
		return math.Abs(float64(hotCount)/n-frac) < 2.0/100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
