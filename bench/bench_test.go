package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"repro/internal/artifacts"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/teacher"
)

func TestPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[n-1-i] = float64(i + 1) // descending, so the sort is exercised
		}
		return out
	}
	for _, c := range []struct {
		name    string
		samples []float64
		q       float64
		minTail int
		want    float64
		ok      bool
	}{
		{"empty", nil, 0.5, 0, 0, false},
		{"single median", []float64{5}, 0.5, 0, 5, true},
		{"unsorted median", []float64{3, 1, 2}, 0.5, 0, 2, true},
		{"even median takes the lower rank", []float64{4, 1, 3, 2}, 0.5, 0, 2, true},
		{"p50 of 100", seq(100), 0.5, 10, 50, true},
		{"p99 of 100, no tail rule", seq(100), 0.99, 0, 99, true},
		{"p99 of 100, one beyond", seq(100), 0.99, 1, 99, true},
		{"p99 of 100 lacks ten beyond", seq(100), 0.99, 10, 0, false},
		{"p99 of 999 has nine beyond", seq(999), 0.99, 10, 0, false},
		{"p99 of 1000 has ten beyond", seq(1000), 0.99, 10, 990, true},
		{"p99 of 2000", seq(2000), 0.99, 10, 1980, true},
		{"max", seq(10), 1, 0, 10, true},
		{"q out of range", seq(10), 0, 0, 0, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, ok := percentile(c.samples, c.q, c.minTail)
			if ok != c.ok || got != c.want {
				t.Errorf("percentile(q=%v, minTail=%d) = %v, %v; want %v, %v", c.q, c.minTail, got, ok, c.want, c.ok)
			}
		})
	}
}

func TestBlockP99(t *testing.T) {
	if got := blockLen(10); got != 1000 {
		t.Errorf("blockLen(10) = %d, want 1000", got)
	}
	if got := blockLen(0); got != 0 {
		t.Errorf("blockLen(0) = %d, want 0", got)
	}
	// Three blocks of 1..1000; the middle one slowed tenfold. The median
	// over blocks ignores it, the pooled p99 would not.
	var samples []float64
	for b := range 3 {
		for i := 1; i <= 1000; i++ {
			v := float64(i)
			if b == 1 {
				v *= 10
			}
			samples = append(samples, v)
		}
	}
	if p99, ok := blockP99(samples, 10); !ok || p99 != 990 {
		t.Errorf("blockP99 = %v, %v; want 990, true", p99, ok)
	}
	if _, ok := blockP99(samples[:999], 10); ok {
		t.Error("999 samples filled a block of 1000")
	}
	// Without a tail rule the whole sample is one block.
	if p99, ok := blockP99([]float64{4, 1, 3, 2}, 0); !ok || p99 != 4 {
		t.Errorf("one block = %v, %v; want 4, true", p99, ok)
	}
}

func TestKeyedMedian(t *testing.T) {
	// Two fast keys and one slow one; the slow key has the most samples,
	// so the pooled median would be slow, the keyed one is not.
	byKey := map[string][]float64{
		"a": {1, 3, 2},
		"b": {5, 4, 6},
		"c": {90, 70, 80, 100, 60, 110, 50},
	}
	if got, ok := keyedMedian(byKey, median); !ok || got != 5 {
		t.Errorf("keyedMedian(median) = %v, %v; want 5, true", got, ok)
	}
	// Key b's mean is pulled up by one long sample; its median is not.
	byKey["b"] = []float64{1, 2, 12}
	if got, ok := keyedMedian(byKey, mean); !ok || got != 5 {
		t.Errorf("keyedMedian(mean) = %v, %v; want 5, true", got, ok)
	}
	if _, ok := keyedMedian(nil, median); ok {
		t.Error("keyedMedian of no keys reported a value")
	}
}

// TestProbeMatchesRunIn checks that the probe is transparent: a session
// whose teacher sits behind it learns the same query with the same
// dialogue as scenario.RunIn, under the serial protocol and under the
// batched one, which must still engage through the probe.
func TestProbeMatchesRunIn(t *testing.T) {
	ctx := context.Background()
	for _, batched := range []bool{false, true} {
		var opts []core.Option
		if batched {
			opts = append(opts, core.WithBatchedProtocol(true))
		}
		ref, probed := artifacts.NewStore(0), artifacts.NewStore(0)
		for _, s := range paperScenarios() {
			want, err := scenario.RunIn(ctx, ref, s, teacher.BestCase, opts...)
			if err != nil {
				t.Fatalf("%s: RunIn: %v", s.ID, err)
			}
			b, err := scenario.ResolveBundle(ctx, probed, s)
			if err != nil {
				t.Fatalf("%s: resolve: %v", s.ID, err)
			}
			sess, _, pr := probedSession(s, b, time.Now(), nil, opts...)
			tree, stats, err := sess.Learn(ctx, &core.TaskSpec{Target: s.Target, Drops: s.Drops})
			if err != nil {
				t.Fatalf("%s: learn through the probe: %v", s.ID, err)
			}
			if got := tree.String(); got != want.Tree.String() {
				t.Errorf("%s (batched=%v): learned query differs\n--- probe ---\n%s\n--- RunIn ---\n%s", s.ID, batched, got, want.Tree.String())
			}
			if batched && stats.Speculation.Prefetches == 0 {
				t.Errorf("%s: batched protocol did not prefetch through the probe", s.ID)
			}
			// Speculation counts transport work whose split between kept
			// and discarded answers depends on timing; the dialogue does not.
			gotStats, wantStats := *stats, *want.Stats
			if batched {
				gotStats.Speculation, wantStats.Speculation = core.SpeculationStats{}, core.SpeculationStats{}
			}
			if !reflect.DeepEqual(gotStats, wantStats) {
				t.Errorf("%s (batched=%v): stats differ\nprobe:  %+v\nRunIn:  %+v", s.ID, batched, gotStats, wantStats)
			}
			calls, _, first, _ := pr.result(time.Now())
			n := 0
			for _, c := range calls {
				n += c
			}
			if n == 0 || first < 0 {
				t.Errorf("%s (batched=%v): probe saw no teacher call", s.ID, batched)
			}
		}
	}
}

// pbWriter hand-encodes protocol buffer fields for the decoder test.
type pbWriter struct{ b []byte }

func (w *pbWriter) varint(v uint64) {
	for v >= 0x80 {
		w.b = append(w.b, byte(v)|0x80)
		v >>= 7
	}
	w.b = append(w.b, byte(v))
}

func (w *pbWriter) uint(field int, v uint64) {
	w.varint(uint64(field) << 3)
	w.varint(v)
}

func (w *pbWriter) bytes(field int, b []byte) {
	w.varint(uint64(field)<<3 | 2)
	w.varint(uint64(len(b)))
	w.b = append(w.b, b...)
}

func (w *pbWriter) packed(field int, vs ...uint64) {
	var p pbWriter
	for _, v := range vs {
		p.varint(v)
	}
	w.bytes(field, p.b)
}

// TestParseProfile decodes a hand-encoded, gzipped profile whose stacks
// are known and checks where each sample is charged: to the innermost
// repro/internal package, through inlined frames, to "bench" for the
// benchmark's own frames, and to "runtime" otherwise. It mixes packed
// and unpacked repeated fields and fields the decoder must skip.
func TestParseProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.mallocgc",                          // 5
		"repro/internal/xq.(*Evaluator).Result",     // 6
		"repro/internal/pathre.Minimize",            // 7
		"repro/internal/angluin.(*learner).close",   // 8
		"runtime.gcBgMarkWorker",                    // 9
		"time.Now",                                  // 10
		"main.(*probe).Member",                      // 11
		"repro/internal/core.(*Engine).Learn.func1", // 12
		"repro/internal/teacher.(*Sim).Member",      // 13
	}
	var p pbWriter
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var m pbWriter
		m.uint(1, vt[0])
		m.uint(2, vt[1])
		p.bytes(1, m.b)
	}
	// Functions 1..9 name strings 5..13.
	for id := uint64(1); id <= 9; id++ {
		var f pbWriter
		f.uint(1, id)
		f.uint(2, id+4)
		f.uint(4, 0)
		p.bytes(5, f.b)
	}
	// Locations: id → functions, innermost first. Location 3 holds
	// pathre.Minimize inlined into angluin's close.
	locs := map[uint64][]uint64{1: {1}, 2: {2}, 3: {3, 4}, 4: {5}, 5: {6}, 6: {7}, 7: {8}, 8: {9}}
	for id := uint64(1); id <= 8; id++ {
		var l pbWriter
		l.uint(1, id)
		l.uint(3, 0x1000+id) // address, skipped
		for _, fn := range locs[id] {
			var line pbWriter
			line.uint(1, fn)
			line.uint(2, 42)
			l.bytes(4, line.b)
		}
		p.bytes(4, l.b)
	}
	sample := func(packed bool, ns uint64, stack ...uint64) {
		var s pbWriter
		if packed {
			s.packed(1, stack...)
		} else {
			for _, id := range stack {
				s.uint(1, id)
			}
		}
		s.packed(2, 1, ns)
		p.bytes(2, s.b)
	}
	sample(false, 10e6, 1, 2)      // mallocgc under xq → xq
	sample(true, 20e6, 3)          // inlined pathre inside angluin → pathre
	sample(false, 30e6, 4)         // GC worker → runtime
	sample(true, 40e6, 5, 6, 7)    // time.Now in the probe, called by core → bench
	sample(true, 50e6, 1, 8, 6, 7) // teacher under the probe → teacher
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	p.uint(9, 123)                      // time_nanos, skipped
	p.uint(12, 1e7)                     // period
	p.b = append(p.b, 0x7d, 1, 2, 3, 4) // field 15, wire type 5 (fixed32), skipped

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.b)
	zw.Close()

	prof, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, total := prof.cpuByLayer()
	want := map[string]int64{"xq": 10e6, "pathre": 20e6, "runtime": 30e6, "bench": 40e6, "teacher": 50e6}
	if !reflect.DeepEqual(got, want) || total != 150e6 {
		t.Errorf("cpuByLayer = %v, %d; want %v, 150000000", got, total, want)
	}

	if _, err := parseProfile(p.b[:len(p.b)-3]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

// TestParseRuntimeProfile decodes a profile written by runtime/pprof
// and checks that every sample is charged to some layer.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	x := 0.0
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
		for i := range 1000 {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.sampleTypes) != 2 || prof.sampleTypes[1] != [2]string{"cpu", "nanoseconds"} {
		t.Errorf("sample types %v, want samples/count and cpu/nanoseconds", prof.sampleTypes)
	}
	byLayer, total := prof.cpuByLayer()
	var sum int64
	for _, v := range byLayer {
		sum += v
	}
	if sum != total {
		t.Errorf("layers sum to %d ns of %d (x=%v)", sum, total, x)
	}
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs one pass of each workload, untraced and traced, and
// checks that every metric BENCHMARK.json names is emitted, finite and
// in its unit, and that nothing else is. One pass has too few sessions
// for the p99 tail rule, which TestPercentile covers, so it is off.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			out, err := run(context.Background(), Config{Workload: w, Seed: 1, Trace: traced, Setups: 1, Repo: ".."})
			if err != nil {
				t.Fatalf("%s (trace=%v): %v", w, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s (trace=%v): correct=%v attempted=%d failed=%d %v", w, traced, out.Correct, out.Attempted, out.Failed, out.reasons)
			}
			var emitted []string
			for name := range out.Metrics {
				emitted = append(emitted, name)
			}
			sort.Strings(emitted)
			var listed []string
			for _, m := range want {
				listed = append(listed, m.Name)
				got, ok := out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace=%v): %s not emitted", w, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s (trace=%v): %s in %q, BENCHMARK.json says %q", w, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s (trace=%v): %s = %v", w, traced, m.Name, got.Value)
				}
			}
			sort.Strings(listed)
			if !reflect.DeepEqual(emitted, listed) {
				t.Errorf("%s (trace=%v): emitted %v, BENCHMARK.json lists %v", w, traced, emitted, listed)
			}
		}
	}
}
