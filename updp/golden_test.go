//go:build amd64

// The digests below pin exact float64 bits. Go may fuse a*b+c into one
// FMA instruction on other architectures, which changes low-order bits, so
// the table is only checked where it was recorded.

package updp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/empirical"
	"repro/internal/xrand"
)

// goldenDigests holds, per entry point and data family, a digest of every
// fixed-seed release computeGoldenDigests makes, each together with the
// generator's next Uint64 after the call. They were recorded from the
// estimators before Radius, the quantile pipeline, FiniteDomainQuantile's
// Gumbel-max and SampleIndices were rewritten to avoid repeated passes
// (commit 2aa13e1), so a match proves that every release, and the
// generator state each leaves behind, is bit-identical to the
// straightforward implementation. On a mismatch the test prints the
// recomputed table.
var goldenDigests = map[string]string{
	"EmpiricalMean/edge":            "98ca4578201949eb88c4be02",
	"EmpiricalMean/gauss":           "8cac66562669afd5509910e4",
	"EmpiricalMean/inf":             "3350eb311c1bf2c9b57076d8",
	"EmpiricalMean/neg-pareto":      "84fd5937595027bc492d18fb",
	"EmpiricalMean/rounded-exp":     "e9c4ba2510b67000ff1e2497",
	"EmpiricalMean/student1.5":      "de8cb024249a0314ac7d56a5",
	"EmpiricalQuantile/edge":        "93a7a9856b9f8c3e80c2b005",
	"EmpiricalQuantile/gauss":       "3667a7e098bd478e45f654ed",
	"EmpiricalQuantile/inf":         "58c289556e3345f13d5fa040",
	"EmpiricalQuantile/neg-pareto":  "5104502a7c8ab9f9dc76c7d9",
	"EmpiricalQuantile/rounded-exp": "1623bc3a1b0674622be9d9ff",
	"EmpiricalQuantile/student1.5":  "7e692939431ce5fd0ccf5d2d",
	"IQR/edge":                      "45105289ab6e5dd259de7b1b",
	"IQR/gauss":                     "2517bfe657d4862b6c1dec7a",
	"IQR/inf":                       "1d7160809ec3acc6564540be",
	"IQR/neg-pareto":                "a98d8f8cf56a58ce82cdc496",
	"IQR/rounded-exp":               "f853777958c317d1f29e2fdf",
	"IQR/student1.5":                "a4e639a375c324d81b10f4cd",
	"Mean/edge":                     "6ab46f19724927f7f264dd87",
	"Mean/gauss":                    "c30dada09c87e8cccac2c522",
	"Mean/inf":                      "2591d1c9e3f47ab9060d2d1f",
	"Mean/neg-pareto":               "e8c93981406ed7122664dfbf",
	"Mean/rounded-exp":              "2ec82c91e571f79d8f9f6ded",
	"Mean/student1.5":               "5458b3b569ca9ea5fe99aa2a",
	"Median/edge":                   "ec664706db00f66a1854f675",
	"Median/gauss":                  "ba43ebf990e482d55e5924d6",
	"Median/inf":                    "ef774d583f3ea4418f543501",
	"Median/neg-pareto":             "39c150eb53ba593e5fc51ff8",
	"Median/rounded-exp":            "e7e8f9e5a3dbfad8bf0223c6",
	"Median/student1.5":             "9fcc512221f38b0bae6f2c8a",
	"PrivateRadius/edge":            "85474b965e3a9941018cfe6d",
	"PrivateRadius/gauss":           "3ce379fc66c48b72836c8ddb",
	"PrivateRadius/inf":             "fa7dc566cce1c9d3f1a16927",
	"PrivateRadius/neg-pareto":      "04c4e3a1ea249977eb981da9",
	"PrivateRadius/rounded-exp":     "35099650a2349ffa7a8d0bcd",
	"PrivateRadius/student1.5":      "0dea824d9cdd0161ead0752a",
	"PrivateRange/edge":             "b7a900b3d35b845d3434af8f",
	"PrivateRange/gauss":            "e8e4430e9868be893ba71d30",
	"PrivateRange/inf":              "d458097233974889696b5369",
	"PrivateRange/neg-pareto":       "6e2b3ab1f6fba4f50d46ae96",
	"PrivateRange/rounded-exp":      "e3a7f344258398d76b99f5d0",
	"PrivateRange/student1.5":       "c7549dd55a9359cd843f88ea",
	"Quantile0.9/edge":              "b8309f809ac989147ab451eb",
	"Quantile0.9/gauss":             "1a898e2ae03bb2f6622b81f2",
	"Quantile0.9/inf":               "ef774d583f3ea4418f543501",
	"Quantile0.9/neg-pareto":        "d5ca048f77bd7f4e5dc0faad",
	"Quantile0.9/rounded-exp":       "4ac5da6448375cfba97d4528",
	"Quantile0.9/student1.5":        "5ad2167f26e99b9f3e5c2d32",
	"QuantileInterval/edge":         "10265269a630fa2e56484513",
	"QuantileInterval/gauss":        "841217b16cf96aae8d2e3fb2",
	"QuantileInterval/inf":          "57d39367d1794a6bc0b7bebe",
	"QuantileInterval/neg-pareto":   "d8d6359020d6f6a5ac3a621e",
	"QuantileInterval/rounded-exp":  "0c7090e84bed59c65fcf8c26",
	"QuantileInterval/student1.5":   "ffcff82b81ae4754e27c9b59",
	"QuantilesProb/edge":            "1d22deec3dcec472dac47728",
	"QuantilesProb/gauss":           "2beca4baaa169adcd76e4230",
	"QuantilesProb/inf":             "4f29c6447fe99df5ad48579d",
	"QuantilesProb/neg-pareto":      "8ef258f345def9d5edd4de8e",
	"QuantilesProb/rounded-exp":     "bb793759da339aa7ca6a904c",
	"QuantilesProb/student1.5":      "342381e3665512b514e404dd",
	"ScaleBracket/edge":             "d9d9e84a8b36720379b2208a",
	"ScaleBracket/gauss":            "6176486fe3506c0066da008a",
	"ScaleBracket/inf":              "91dc9d915b681682f5d1db4d",
	"ScaleBracket/neg-pareto":       "d4da8e25a012f62ee50d9a66",
	"ScaleBracket/rounded-exp":      "ea9e961752f206f913a9b8f9",
	"ScaleBracket/student1.5":       "f089a1970dcbc19ffc476a2d",
	"TrimmedMean/edge":              "b533dbd521ef4def2d3214bf",
	"TrimmedMean/gauss":             "e51d723e243f8b42af6bc9e4",
	"TrimmedMean/inf":               "09d5fe790b930371ae94b87a",
	"TrimmedMean/neg-pareto":        "629a39df457390b2b5f21124",
	"TrimmedMean/rounded-exp":       "b17901f5b872e795ed5a1f88",
	"TrimmedMean/student1.5":        "87a5fc702956816653cd3e53",
	"Variance/edge":                 "0bc24b624e43b13d0cbec926",
	"Variance/gauss":                "816784da6fbdf281ccc63650",
	"Variance/inf":                  "2e37cbad7fddaab403c9fd2e",
	"Variance/neg-pareto":           "d639f46712ba06ec9d0e0776",
	"Variance/rounded-exp":          "c79b8968374a070e71eb2eec",
	"Variance/student1.5":           "15ba260bcb91867d3acfb490",
}

// goldenFamilies generates the float datasets; ints are derived from them.
var goldenFamilies = []struct {
	name string
	draw func(r *xrand.RNG, i int) float64
}{
	{"gauss", func(r *xrand.RNG, _ int) float64 { return 250 + 30*r.Gaussian() }},
	{"student1.5", func(r *xrand.RNG, _ int) float64 { return 10 * r.StudentT(1.5) }},
	{"rounded-exp", func(r *xrand.RNG, _ int) float64 { return math.Round(20 * r.Exponential()) }},
	{"neg-pareto", func(r *xrand.RNG, _ int) float64 { return -r.Pareto(1, 1.5) }},
	{"edge", func(r *xrand.RNG, i int) float64 {
		switch i % 9 {
		case 1:
			return math.NaN()
		case 4:
			return 1e300
		case 7:
			return -0x1p62
		}
		return 7
	}},
	// All ±Inf: 18% of the pair distances are infinite, just under the 3/16
	// the IQR scale search looks for, and the rest NaN. The search then
	// often stops past 2^1023, and EstimateIQR must refuse the infinite
	// bucket.
	{"inf", func(_ *xrand.RNG, i int) float64 {
		if i%10 == 3 {
			return math.Inf(-1)
		}
		return math.Inf(1)
	}},
}

// goldenInts maps a float dataset to integers, pushing the edge family and
// infinities to the int64 extremes.
func goldenInts(fam string, xs []float64) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		switch {
		case fam == "edge" && i%9 == 4:
			out[i] = math.MaxInt64
		case fam == "edge" && i%9 == 1:
			out[i] = math.MinInt64
		case fam == "edge" && i%9 == 7:
			out[i] = -1 << 61
		case math.IsInf(x, 1):
			out[i] = math.MaxInt64
		case math.IsInf(x, -1):
			out[i] = math.MinInt64
		default:
			out[i] = int64(math.Round(16 * x))
		}
	}
	return out
}

// goldenEntries are the estimator entry points, each called with an
// explicit generator so its state after the call can be read.
var goldenEntries = []struct {
	name string
	run  func(r *xrand.RNG, xs []float64, ints []int64, eps float64) string
}{
	{"Median", func(r *xrand.RNG, xs []float64, _ []int64, eps float64) string {
		return fmtF(core.EstimateQuantile(r, xs, medianRank(len(xs)), eps, 0.1))
	}},
	{"Quantile0.9", func(r *xrand.RNG, xs []float64, _ []int64, eps float64) string {
		return fmtF(core.EstimateQuantile(r, xs, int(math.Ceil(0.9*float64(len(xs)))), eps, 0.1))
	}},
	{"IQR", func(r *xrand.RNG, xs []float64, _ []int64, eps float64) string {
		return fmtF(core.EstimateIQR(r, xs, eps, 0.1))
	}},
	{"Mean", func(r *xrand.RNG, xs []float64, _ []int64, eps float64) string {
		return fmtF(core.EstimateMean(r, xs, eps, 0.1))
	}},
	{"Variance", func(r *xrand.RNG, xs []float64, _ []int64, eps float64) string {
		return fmtF(core.EstimateVariance(r, xs, eps, 0.1))
	}},
	{"QuantilesProb", func(r *xrand.RNG, xs []float64, _ []int64, eps float64) string {
		qs, err := core.EstimateQuantilesProb(r, xs, []float64{0.75, 0.1, 0.5, 0.1}, eps, 0.1)
		return fmtFs(qs, err)
	}},
	{"TrimmedMean", func(r *xrand.RNG, xs []float64, _ []int64, eps float64) string {
		return fmtF(core.TrimmedMean(r, xs, 0.1, eps, 0.1))
	}},
	{"QuantileInterval", func(r *xrand.RNG, xs []float64, _ []int64, eps float64) string {
		ci, err := core.QuantileInterval(r, xs, 0.5, eps, 0.1)
		return fmtFs([]float64{ci.Lo, ci.Hi}, err)
	}},
	{"ScaleBracket", func(r *xrand.RNG, xs []float64, _ []int64, eps float64) string {
		sb, err := core.EstimateScaleBracket(r, xs, eps, 0.1)
		return fmtFs([]float64{sb.Lo, sb.Hi}, err)
	}},
	{"EmpiricalQuantile", func(r *xrand.RNG, _ []float64, ints []int64, eps float64) string {
		return fmtI(empirical.Quantile(r, ints, medianRank(len(ints)), eps, 0.1))
	}},
	{"EmpiricalMean", func(r *xrand.RNG, _ []float64, ints []int64, eps float64) string {
		return fmtF(empirical.Mean(r, ints, eps, 0.1))
	}},
	{"PrivateRange", func(r *xrand.RNG, _ []float64, ints []int64, eps float64) string {
		lo, hi, err := empirical.Range(r, ints, eps, 0.1)
		return fmtIs([]int64{lo, hi}, err)
	}},
	{"PrivateRadius", func(r *xrand.RNG, _ []float64, ints []int64, eps float64) string {
		return fmtI(empirical.Radius(r, ints, eps, 0.1))
	}},
}

func medianRank(n int) int { return int(math.Ceil(0.5 * float64(n))) }

func fmtF(v float64, err error) string { return fmtFs([]float64{v}, err) }
func fmtI(v int64, err error) string   { return fmtIs([]int64{v}, err) }

func fmtFs(vs []float64, err error) string {
	if err != nil {
		return "err " + err.Error()
	}
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'x', -1, 64)
	}
	return strings.Join(parts, ",")
}

func fmtIs(vs []int64, err error) string {
	if err != nil {
		return "err " + err.Error()
	}
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatInt(v, 10)
	}
	return strings.Join(parts, ",")
}

// goldenSeeds returns the generator seeds per sample size: fewer at the
// largest n, where one release costs milliseconds.
func goldenSeeds(n int) int {
	if n >= 5000 {
		return 3
	}
	return 10
}

// computeGoldenDigests runs every entry point over families × n × seed ×
// eps and returns one digest per entry point and family.
func computeGoldenDigests() map[string]string {
	out := make(map[string]string)
	for _, fam := range goldenFamilies {
		type dataset struct {
			xs   []float64
			ints []int64
		}
		var sets []dataset
		for _, n := range []int{4, 17, 200, 5000} {
			r := xrand.New(uint64(1000 + n))
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = fam.draw(r, i)
			}
			sets = append(sets, dataset{xs, goldenInts(fam.name, xs)})
		}
		for _, e := range goldenEntries {
			h := sha256.New()
			for _, d := range sets {
				for seed := 1; seed <= goldenSeeds(len(d.xs)); seed++ {
					for _, eps := range []float64{0.1, 1, 4} {
						r := xrand.New(uint64(seed))
						got := e.run(r, d.xs, d.ints, eps)
						fmt.Fprintf(h, "%d %d %v %s next=%d\n", len(d.xs), seed, eps, got, r.Uint64())
					}
				}
			}
			out[e.name+"/"+fam.name] = hex.EncodeToString(h.Sum(nil)[:12])
		}
	}
	return out
}

func TestReleasesMatchGoldenDigests(t *testing.T) {
	got := computeGoldenDigests()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var table strings.Builder
	failed := false
	for _, k := range keys {
		fmt.Fprintf(&table, "\t%q: %q,\n", k, got[k])
		if want, ok := goldenDigests[k]; !ok || want != got[k] {
			t.Errorf("%s: digest %s, want %s", k, got[k], want)
			failed = true
		}
	}
	if failed {
		t.Logf("recomputed table:\n%s", table.String())
	}
}

// The public wrappers add only rank selection and option handling, so one
// seeded call per wrapper pins them to the entry points digested above.
func TestPublicWrappersMatchEntryPoints(t *testing.T) {
	xs := gaussianData(5, 300, 250, 30)
	ints := goldenInts("gauss", xs)
	checks := []struct {
		name      string
		got, want string
	}{
		{"Median", fmtF(Median(xs, 1, WithSeed(3))), fmtF(core.EstimateQuantile(xrand.New(3), xs, 150, 1, 0.1))},
		{"IQR", fmtF(IQR(xs, 1, WithSeed(3))), fmtF(core.EstimateIQR(xrand.New(3), xs, 1, 0.1))},
		{"Mean", fmtF(Mean(xs, 1, WithSeed(3))), fmtF(core.EstimateMean(xrand.New(3), xs, 1, 0.1))},
		{"Variance", fmtF(Variance(xs, 1, WithSeed(3))), fmtF(core.EstimateVariance(xrand.New(3), xs, 1, 0.1))},
		{"EmpiricalQuantile", fmtI(EmpiricalQuantile(ints, 150, 1, WithSeed(3))), fmtI(empirical.Quantile(xrand.New(3), ints, 150, 1, 0.1))},
		{"EmpiricalMean", fmtF(EmpiricalMean(ints, 1, WithSeed(3))), fmtF(empirical.Mean(xrand.New(3), ints, 1, 0.1))},
		{"PrivateRadius", fmtI(PrivateRadius(ints, 1, WithSeed(3))), fmtI(empirical.Radius(xrand.New(3), ints, 1, 0.1))},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s: public %s, entry point %s", c.name, c.got, c.want)
		}
	}
}
