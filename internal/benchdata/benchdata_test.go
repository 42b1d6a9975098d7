package benchdata

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: clusterbooster/internal/bench
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkKernelPingPongEager      	 1148995	       990.6 ns/op	     142 B/op	       0 allocs/op
BenchmarkKernelPingPongEager      	 1100000	       985.2 ns/op	     140 B/op	       0 allocs/op
BenchmarkKernelAllreduce8-16      	  145767	      7942 ns/op	    1358 B/op	       1 allocs/op
some unrelated line
PASS
ok  	clusterbooster/internal/bench	11.694s
`

func TestParse(t *testing.T) {
	b, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(b.Benchmarks), b.Benchmarks)
	}
	// Sorted by name; the -16 GOMAXPROCS suffix is stripped.
	if b.Benchmarks[0].Name != "KernelAllreduce8" || b.Benchmarks[1].Name != "KernelPingPongEager" {
		t.Fatalf("names = %q, %q", b.Benchmarks[0].Name, b.Benchmarks[1].Name)
	}
	// Repeated runs keep the minimum ns/op.
	if got := b.Benchmarks[1].NsPerOp; got != 985.2 {
		t.Fatalf("ns/op = %v, want the 985.2 minimum", got)
	}
	if b.Benchmarks[0].AllocsPerOp != 1 || b.Benchmarks[0].BytesPerOp != 1358 {
		t.Fatalf("allreduce8 metrics = %+v", b.Benchmarks[0])
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\nok\n")); err == nil {
		t.Fatal("no error on input without benchmark lines")
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	b, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	b.Note = "test"
	raw, err := b.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseBaseline(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Benchmarks) != len(b.Benchmarks) || back.Note != "test" || back.Schema != Schema {
		t.Fatalf("round trip mangled the baseline: %+v", back)
	}
	if _, err := ParseBaseline([]byte(`{"schema": 99}`)); err == nil {
		t.Fatal("no error on unknown schema")
	}
}

func TestCompare(t *testing.T) {
	base := Baseline{Schema: Schema, Benchmarks: []Benchmark{
		{Name: "A", NsPerOp: 1000, AllocsPerOp: 4},
		{Name: "B", NsPerOp: 500, AllocsPerOp: 0},
		{Name: "Gone", NsPerOp: 10, AllocsPerOp: 0},
	}}
	fresh := Baseline{Schema: Schema, Benchmarks: []Benchmark{
		{Name: "A", NsPerOp: 1300, AllocsPerOp: 4}, // +30% ns: regression at 25%
		{Name: "B", NsPerOp: 600, AllocsPerOp: 1},  // +20% ns ok; +1 alloc beyond the 0.5 slack
		{Name: "New", NsPerOp: 1, AllocsPerOp: 0},  // unknown to the baseline: ignored
	}}
	regs := Compare(base, fresh, 0.25, 0.25)
	if len(regs) != 3 {
		t.Fatalf("got %d regressions %v, want 3 (A ns, B allocs, Gone missing)", len(regs), regs)
	}
	seen := map[string]string{}
	for _, r := range regs {
		seen[r.Name] = r.Metric
		if r.String() == "" {
			t.Fatal("empty regression rendering")
		}
	}
	if seen["A"] != "ns/op" || seen["B"] != "allocs/op" || seen["Gone"] != "missing" {
		t.Fatalf("regressions = %v", seen)
	}
	// Within tolerance: no regressions.
	if regs := Compare(base, base, 0.25, 0.25); len(regs) != 0 {
		t.Fatalf("self-comparison regressed: %v", regs)
	}
}
