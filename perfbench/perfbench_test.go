package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestInputsReproducible pins set-up: the same seed gives
// byte-identical input digests, another seed different ones.
func TestInputsReproducible(t *testing.T) {
	for _, base := range specs {
		sp := base.shrink()
		t.Run(sp.name, func(t *testing.T) {
			build := func(seed uint64) string {
				in, err := buildInputs(context.Background(), sp, seed, 1)
				if err != nil {
					t.Fatal(err)
				}
				return in.digest
			}
			a, b, c := build(7), build(7), build(8)
			if a != b {
				t.Errorf("same seed, different digests: %s %s", a, b)
			}
			if a == c {
				t.Errorf("seeds 7 and 8 give the same digest %s", a)
			}
		})
	}
}

// TestTeardown runs short configurations that succeed, fail their
// check, or hit the whole-run deadline, and asserts that each leaves
// nothing behind: goroutines back to baseline, the listener refusing
// connections, no temporary directory.
func TestTeardown(t *testing.T) {
	cases := []struct {
		name       string
		o          options
		wantResult bool // a result is printed
		wantErr    bool
	}{
		{name: "ingest-wal ok", o: options{workload: "ingest-wal", seconds: 1}, wantResult: true},
		{name: "ingest-off traced", o: options{workload: "ingest-off", seconds: 1, trace: true}, wantResult: true},
		{name: "fleet-churn ok", o: options{workload: "fleet-churn", seconds: 0.5}, wantResult: true},
		{name: "ingest-off bad check", o: options{workload: "ingest-off", seconds: 1, breakOracle: true}, wantResult: true, wantErr: true},
		{name: "fleet-fine bad check", o: options{workload: "fleet-fine", seconds: 0.5, breakOracle: true}, wantResult: true, wantErr: true},
		{name: "ingest-off deadline", o: options{workload: "ingest-off", seconds: 20, deadline: 10 * time.Second}, wantErr: true},
		{name: "fleet-fine deadline", o: options{workload: "fleet-fine", seconds: 60, deadline: 5 * time.Second}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			o := tc.o
			o.seed, o.small, o.dir = 3, true, t.TempDir()
			if o.deadline == 0 {
				o.deadline = time.Minute
			}
			rep, err := execute(context.Background(), o)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			if rep.result != tc.wantResult || (rep.result && rep.correct == tc.wantErr) {
				t.Fatalf("result %v correct %v, want result %v correct %v", rep.result, rep.correct, tc.wantResult, !tc.wantErr)
			}
			if rep.result {
				checkPrinted(t, rep, o.trace)
			}
			for limit := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
				if time.Now().After(limit) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(10 * time.Millisecond)
			}
			if rep.addr != "" {
				if c, err := net.DialTimeout("tcp", rep.addr, time.Second); err == nil {
					c.Close()
					t.Errorf("listener %s still accepts connections", rep.addr)
				}
			} else if strings.HasPrefix(o.workload, "ingest") {
				t.Errorf("no listener address recorded")
			}
			ents, err := os.ReadDir(o.dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if e.IsDir() {
					t.Errorf("directory %s left behind", e.Name())
				}
			}
		})
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFile keeps BENCHMARK.json and the code in step: the same
// workloads in the same order, and the per-layer metrics this command
// prints.
func TestBenchmarkFile(t *testing.T) {
	b := readBenchmark(t)
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in specs", i, w.Name, specs[i].name)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d printed", len(b.PerLayer), len(perLayer))
	}
	for i, d := range b.PerLayer {
		if d.Name != perLayer[i].name || d.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: %s %s in BENCHMARK.json, %s %s printed", i, d.Name, d.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// checkPrinted asserts the printed result: the last line is one JSON
// object with exactly the keys correct, attempted, failed and metrics,
// holding every metric BENCHMARK.json lists for the run's mode.
func checkPrinted(t *testing.T, rep *report, traced bool) {
	t.Helper()
	var out bytes.Buffer
	printReport(&out, rep)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys: %s", lines[len(lines)-1])
	}
	if !rep.correct {
		return
	}
	var ms map[string]struct {
		Value *float64
		Unit  string
	}
	if err := json.Unmarshal(res["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	bench := readBenchmark(t)
	want := bench.EndToEnd
	if traced {
		want = bench.PerLayer
	}
	for _, d := range want {
		m, ok := ms[d.Name]
		if !ok || m.Value == nil || m.Unit != d.Unit {
			t.Errorf("metric %s missing or not in %s", d.Name, d.Unit)
		} else if !traced && *m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, *m.Value)
		}
	}
	if len(ms) != len(want) {
		t.Errorf("%d metrics printed, want %d", len(ms), len(want))
	}
}
