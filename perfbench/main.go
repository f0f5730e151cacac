// Command perfbench is phasekit's benchmark. It builds every input of
// one workload from a seed, runs the system under test in this process
// (a loopback server or an in-process fleet), checks the outputs
// against a plain core.Tracker oracle, and prints every metric by name
// with its unit. The last line of standard output is the JSON result.
//
//	bash perfbench/run.sh --workload ingest-off --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the workload untraced and traced, then a single-goroutine layer
// ladder, and prints the per-layer metrics. perfbench/README.md lists
// the workloads and which layer metric should move which end-to-end
// metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// dir holds the run's temporary directory and the trace file.
	dir string
	// deadline bounds the whole run; teardown still runs after it.
	deadline time.Duration
	// small shrinks the inputs (the package's tests).
	small bool
	// breakOracle corrupts one expected phase ID, so the tests can
	// exercise the failed-check path.
	breakOracle bool
}

// e2e is what one end-to-end run measured.
type e2e struct {
	attempted, failed int
	eventsPerS        float64
	ackP50, ackP99    float64 // ms
	sendP99           float64 // ms, the Send call in a closed loop (fleet)
	resP50, resP90    float64 // ms
	resP99            float64 // ms
	cpuNsPerEvent     float64
	heapMB            float64
	lateP99           float64 // ms, generator lateness
	genNsPerFrame     float64
	// layers are counters read from the system after the run.
	layers map[string]float64
}

// checkError marks a failed correctness check: the run produced a
// result, and it is wrong.
type checkError struct{ err error }

func (e *checkError) Error() string { return "check failed: " + e.err.Error() }
func (e *checkError) Unwrap() error { return e.err }

type metric struct {
	name  string
	value float64
	unit  string
}

// report is one run's output. Only a run that produced a result
// (result true; a failed check gives one with correct false) prints it.
type report struct {
	result    bool
	host      map[string]any
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	// addr is the server's listener address (ingest workloads), for
	// the teardown tests.
	addr string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = print per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// run.sh runs this from the checkout's root and keeps its own build
	// output in the same directory.
	o.dir, o.deadline = ".bench_build", 150*time.Second
	o.trace = *trace == 1
	if _, err := lookupSpec(o.workload); err != nil || o.seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q: %v)\n", o.workload, err)
		return 2
	}
	// An interrupt or termination cancels the run like the deadline
	// does, so teardown still runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	defer stop()
	rep, err := execute(ctx, o)
	if rep.result {
		printReport(stdout, rep)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// printReport prints the host line, one line per metric, and last the
// JSON result.
func printReport(w io.Writer, rep *report) {
	fmt.Fprintln(w, "host", jsonLine(rep.host))
	ms := map[string]any{}
	for _, m := range rep.metrics {
		fmt.Fprintf(w, "metric %s %.6g %s\n", m.name, m.value, m.unit)
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	fmt.Fprintln(w, jsonLine(map[string]any{
		"correct": rep.correct, "attempted": rep.attempted, "failed": rep.failed, "metrics": ms,
	}))
}

func jsonLine(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%q", err.Error())
	}
	return string(b)
}

// execute runs one workload and returns its report (never nil) after
// everything it started is stopped and its temporary directory
// removed.
func execute(ctx context.Context, o options) (*report, error) {
	rep := &report{host: map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"seed": o.seed, "workload": o.workload,
	}}
	sp, err := lookupSpec(o.workload)
	if err != nil {
		return rep, err
	}
	if o.small {
		sp = sp.shrink()
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return rep, err
	}
	tmp, err := os.MkdirTemp(o.dir, "perfbench-run-*")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(tmp)
	ctx, cancel := context.WithTimeout(ctx, o.deadline)
	defer cancel()
	// Teardown is bounded too; should it ever hang, exit anyway rather
	// than leave the process behind.
	hard := time.AfterFunc(o.deadline+20*time.Second, func() {
		os.RemoveAll(tmp)
		fmt.Fprintln(os.Stderr, "perfbench: teardown did not finish after the deadline")
		os.Exit(3)
	})
	defer hard.Stop()

	fsync, err := fsyncProbe(tmp, 15)
	if err != nil {
		return rep, fmt.Errorf("fsync probe: %w", err)
	}
	rep.host["fsync_p50_us"] = float64(fsync) / 1e3

	// Set-up: build the inputs (several times when timing set-up; every
	// build must give the same digest).
	builds := 3
	if o.trace {
		builds = 1
	}
	var in *inputs
	var setups []float64
	for i := 0; i < builds; i++ {
		t := time.Now()
		next, err := buildInputs(ctx, sp, o.seed, o.seconds)
		if err != nil {
			return rep, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		if in != nil && next.digest != in.digest {
			return rep, fmt.Errorf("set-up is not reproducible: digests %s and %s", in.digest, next.digest)
		}
		in = next
	}
	rep.host["input_digest"] = in.digest
	if o.breakOracle {
		for s := range in.oracle {
			if len(in.oracle[s].phases) > 0 {
				in.oracle[s].phases[0]++
				break
			}
		}
	}

	var m []metric
	if !o.trace {
		res, startup, err := runE2E(ctx, in, tmp, o, nil, rep)
		if err != nil {
			return failed(rep, err)
		}
		rep.attempted, rep.failed = res.attempted, res.failed
		m = []metric{
			{"setup_s", median(setups) + startup.Seconds(), "s"},
			{"events_per_s", res.eventsPerS, "1/s"},
			{"ack_p50_ms", res.ackP50, "ms"},
			{"result_p50_ms", res.resP50, "ms"},
			{"result_p90_ms", res.resP90, "ms"},
			{"cpu_ns_per_event", res.cpuNsPerEvent, "ns"},
			{"live_heap_mb", res.heapMB, "MB"},
		}
	} else {
		m, err = traced(ctx, in, tmp, o, rep)
		if err != nil {
			return failed(rep, err)
		}
	}
	rep.metrics = m
	rep.result, rep.correct = true, true
	return rep, nil
}

// failed marks a failed check as a result (correct false); any other
// error leaves the run without one.
func failed(rep *report, err error) (*report, error) {
	var ce *checkError
	rep.result = errors.As(err, &ce)
	return rep, err
}

// runE2E runs the workload end to end: open loop through the server
// for ingest workloads, in process through Fleet.Send otherwise.
func runE2E(ctx context.Context, in *inputs, dir string, o options, tr *tracer, rep *report) (*e2e, time.Duration, error) {
	var res *e2e
	var startup time.Duration
	var err error
	if in.spec.ingest {
		res, startup, err = runIngest(ctx, in, dir, tr, rep)
	} else {
		seconds := o.seconds
		if o.trace {
			seconds *= 0.3
		}
		res, err = runFleet(ctx, in, seconds, 3, tr)
	}
	if res != nil && res.lateP99 > ms(int64(behindLimit)) {
		rep.host["generator_behind"] = true
	}
	return res, startup, err
}

// maxSpans caps the spans each trace file keeps; the per-name totals
// behind the metrics count every span.
const maxSpans = 1 << 16

// traced runs the workload untraced and traced on the same inputs,
// then the layer ladder, and returns the per-layer metrics.
func traced(ctx context.Context, in *inputs, dir string, o options, rep *report) ([]metric, error) {
	plain, _, err := runE2E(ctx, in, dir, o, nil, rep)
	if err != nil {
		return nil, err
	}
	clk := newClock()
	tr := newTracer(clk, maxSpans)
	tres, _, err := runE2E(ctx, in, dir, o, tr, rep)
	if err != nil {
		return nil, err
	}
	rep.attempted, rep.failed = plain.attempted+tres.attempted, plain.failed+tres.failed
	ltr := newTracer(clk, maxSpans)
	lm, err := layerLadder(ctx, in, dir, ltr)
	if err != nil {
		return nil, err
	}
	for k, v := range tres.layers {
		lm[k] = v
	}
	batch := float64(batchEvents)
	ledger := lm["fleet.send_ns_per_event"]
	lm["gen.late_p99_ms"] = tres.lateP99
	lm["fleet.result_p99_ms"] = plain.resP99
	if !in.spec.ingest {
		lm["fleet.send_p99_ms"] = plain.sendP99
	}
	if in.spec.ingest {
		lm["server.ack_p99_ms"] = plain.ackP99
		lm["gen.write_ns_per_frame"] = tres.genNsPerFrame
		ledger += lm["wire.decode_ns_per_event"] + tres.genNsPerFrame/batch
		if in.spec.wal {
			ledger += (lm["wal.append_ns_per_batch"] + lm["wal.commit_p50_us"]*1e3) / batch
		}
	}
	lm["ledger.residual_frac"] = 1 - ledger/plain.cpuNsPerEvent
	lm["trace.overhead_frac"] = tres.cpuNsPerEvent/plain.cpuNsPerEvent - 1
	lm["run.fail_frac"] = float64(rep.failed) / float64(rep.attempted)
	lm["wal.fsync_p50_us"] = rep.host["fsync_p50_us"].(float64)
	for part, t := range map[string]*tracer{"e2e": tr, "ladder": ltr} {
		if err := t.write(filepath.Join(o.dir, "perfbench-trace-"+in.spec.name+"-"+part+".jsonl")); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	var out []metric
	for _, d := range perLayer {
		out = append(out, metric{d.name, lm[d.name], d.unit})
	}
	return out, nil
}

// perLayer lists the per-layer metrics in BENCHMARK.json order. A layer
// a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"gen.late_p99_ms", "ms"},
	{"gen.write_ns_per_frame", "ns"},
	{"wire.decode_ns_per_event", "ns"},
	{"wire.bytes_per_event", "B"},
	{"server.frames_per_burst", "count"},
	{"server.nacks", "count"},
	{"server.wal_failures", "count"},
	{"server.ack_p99_ms", "ms"},
	{"fleet.send_ns_per_event", "ns"},
	{"fleet.dropped_batches", "count"},
	{"fleet.duplicate_batches", "count"},
	{"fleet.send_p99_ms", "ms"},
	{"fleet.result_p99_ms", "ms"},
	{"core.branch_ns_per_event", "ns"},
	{"signature.add_ns_per_event", "ns"},
	{"core.boundary_ns", "ns"},
	{"signature.compress_ns", "ns"},
	{"classifier.classify_ns", "ns"},
	{"classifier.rows_per_classify", "count"},
	{"classifier.mru_hit_ratio", "ratio"},
	{"classifier.table_len", "count"},
	{"predictor.ns_per_interval", "ns"},
	{"state.save_ns", "ns"},
	{"state.load_ns", "ns"},
	{"state.loads_per_batch", "ratio"},
	{"state.snapshot_bytes", "B"},
	{"state.snapshot_ns", "ns"},
	{"state.restore_ns", "ns"},
	{"wal.append_ns_per_batch", "ns"},
	{"wal.commit_p50_us", "us"},
	{"wal.commit_p99_us", "us"},
	{"wal.bytes_per_event", "B"},
	{"wal.fsync_p50_us", "us"},
	{"ledger.residual_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"run.fail_frac", "ratio"},
}
