package machine

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"tracex/internal/cache"
)

// fmtFingerprint is the fmt rendering Fingerprint replaced, kept as the
// oracle its strconv appends must match byte for byte.
func fmtFingerprint(c Config) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|%g|%v|%g|%g|%g|%g|%g|%t|%+v",
		c.Name, c.ClockGHz, c.CacheLatency, c.MemLatencyCycles, c.MemBandwidthGBs,
		c.FLOPsPerCycle, c.IssueWidth, c.MLP, c.Prefetch, c.Network)
	for _, lv := range c.Caches {
		fmt.Fprintf(&sb, "|%+v", lv)
	}
	return sb.String()
}

// TestFingerprintGolden pins the fingerprint of every predefined system,
// with and without the prefetcher, to the text recorded from the fmt
// rendering: store keys hash it.
func TestFingerprintGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/fingerprints.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) != 2*len(Names()) {
		t.Errorf("golden holds %d fingerprints, want %d", len(golden), 2*len(Names()))
	}
	for _, base := range Names() {
		for _, name := range []string{base, base + "+pf"} {
			cfg, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := cfg.Fingerprint(), golden[name]; got != want {
				t.Errorf("%s fingerprint\n got %q\nwant %q", name, got, want)
			}
		}
	}
}

// randFloat draws ordinary values and the ones %g spells specially.
func randFloat(r *rand.Rand) float64 {
	switch r.Intn(10) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return math.Copysign(0, -1)
	case 4:
		return float64(r.Intn(2000) - 1000)
	case 5:
		return math.Float64frombits(r.Uint64()) // any bits, subnormals included
	default:
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(50)-25))
	}
}

// randName draws names with separators, braces, spaces and non-ASCII runes.
func randName(r *rand.Rand) string {
	const alphabet = "ab|{}: +-é0"
	runes := []rune(alphabet)
	out := make([]rune, r.Intn(8))
	for i := range out {
		out[i] = runes[r.Intn(len(runes))]
	}
	return string(out)
}

// TestFingerprintMatchesFmt compares Fingerprint with the fmt rendering on
// random configurations, NaN, ±Inf, −0, negative integers, empty and nil
// slices included.
func TestFingerprintMatchesFmt(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	randInt := func() int {
		if r.Intn(4) == 0 {
			return -r.Intn(1 << 20)
		}
		return r.Intn(1 << 30)
	}
	for i := 0; i < 5000; i++ {
		c := Config{
			Name:             randName(r),
			ClockGHz:         randFloat(r),
			MemLatencyCycles: randFloat(r),
			MemBandwidthGBs:  randFloat(r),
			FLOPsPerCycle:    randFloat(r),
			IssueWidth:       randFloat(r),
			MLP:              randFloat(r),
			Prefetch:         r.Intn(2) == 0,
			Network:          NetworkConfig{LatencyUS: randFloat(r), BandwidthGBs: randFloat(r), OverheadUS: randFloat(r)},
		}
		if k := r.Intn(5); k > 0 {
			c.CacheLatency = make([]float64, k-1)
			for j := range c.CacheLatency {
				c.CacheLatency[j] = randFloat(r)
			}
		}
		for k := r.Intn(5); k > 0; k-- {
			c.Caches = append(c.Caches, cache.LevelConfig{Name: randName(r), SizeBytes: randInt(), Assoc: randInt(), LineSize: randInt()})
		}
		if got, want := c.Fingerprint(), fmtFingerprint(c); got != want {
			t.Fatalf("config %+v:\n got %q\nwant %q", c, got, want)
		}
	}
}

// TestFingerprintCoversEveryField changes every field reachable from a
// Config, one at a time, and requires the fingerprint to change. A field
// added to Config, NetworkConfig or cache.LevelConfig fails it until
// Fingerprint covers it.
func TestFingerprintCoversEveryField(t *testing.T) {
	base := BlueWatersP1()
	want := base.Fingerprint()
	// check changes the field that at reaches in a copy of base.
	check := func(name string, at func(c *Config) reflect.Value) {
		c := base
		c.Caches = slices.Clone(base.Caches)
		c.CacheLatency = slices.Clone(base.CacheLatency)
		switch v := at(&c); v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			t.Fatalf("%s is a %s, which this test cannot change", name, v.Kind())
		}
		if c.Fingerprint() == want {
			t.Errorf("changing %s leaves the fingerprint unchanged", name)
		}
	}
	var walk func(name string, at func(c *Config) reflect.Value)
	walk = func(name string, at func(c *Config) reflect.Value) {
		c := base
		switch v := at(&c); v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(name+"."+v.Type().Field(i).Name, func(c *Config) reflect.Value { return at(c).Field(i) })
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", name, i), func(c *Config) reflect.Value { return at(c).Index(i) })
			}
		default:
			check(name, at)
		}
	}
	walk("Config", func(c *Config) reflect.Value { return reflect.ValueOf(c).Elem() })
}
