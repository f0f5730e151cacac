package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"phasekit/internal/core"
)

// clock is the run's monotonic time base; every recorded time is
// nanoseconds since start.
type clock struct{ start time.Time }

func newClock() clock { return clock{start: time.Now()} }

func (c clock) now() int64 { return int64(time.Since(c.start)) }

// results records every OnInterval callback into per-stream slices
// preallocated from the oracle, so the callback never allocates. Each
// stream is owned by one fleet shard, so its slices are written by one
// goroutine; they are read only after a fleet barrier.
type results struct {
	clk   clock
	index map[string]int
	phase [][]int32
	at    [][]int64
}

func newResults(in *inputs, clk clock) *results {
	r := &results{clk: clk, index: make(map[string]int, len(in.streams))}
	r.phase = make([][]int32, len(in.streams))
	r.at = make([][]int64, len(in.streams))
	for s, st := range in.streams {
		r.index[st.name] = s
		n := len(in.oracle[s].phases)
		r.phase[s] = make([]int32, 0, n)
		r.at[s] = make([]int64, 0, n)
	}
	return r
}

func (r *results) onInterval(stream string, res core.IntervalResult) {
	s := r.index[stream]
	r.phase[s] = append(r.phase[s], int32(res.PhaseID))
	r.at[s] = append(r.at[s], r.clk.now())
}

func (r *results) reset() {
	for s := range r.phase {
		r.phase[s] = r.phase[s][:0]
		r.at[s] = r.at[s][:0]
	}
}

// check compares every stream's phase sequence with the oracle's for
// the batches the stream received.
func (r *results) check(in *inputs, received []int) error {
	for s := range in.streams {
		want := in.expected(s, received[s])
		got := r.phase[s]
		if len(got) != len(want) {
			return fmt.Errorf("stream %s: %d intervals classified, oracle has %d", in.streams[s].name, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				return fmt.Errorf("stream %s interval %d: phase %d, oracle %d", in.streams[s].name, j, got[j], want[j])
			}
		}
	}
	return nil
}

// quantile returns the q-quantile (nearest rank) of xs, sorting xs.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// fsyncProbe times raw fsyncs of a small file in dir: the host's
// durability cost, against which WAL numbers are read.
func fsyncProbe(dir string, n int) (time.Duration, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	ds := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		t := time.Now()
		if err := f.Sync(); err != nil {
			return 0, err
		}
		ds = append(ds, int64(time.Since(t)))
	}
	return time.Duration(quantile(ds, 0.5)), nil
}

// tracer keeps spans in memory: per-name totals always, and the spans
// themselves up to a cap, written out when the run ends.
type tracer struct {
	clk   clock
	spans []traceSpan
	max   int
	aggs  map[string]*spanAgg
}

type traceSpan struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Seq    uint64 `json:"seq"`
}

type spanAgg struct {
	count int64
	ns    int64
	units int64 // work items the spans covered (events, batches)
}

func newTracer(clk clock, max int) *tracer {
	return &tracer{clk: clk, max: max, aggs: make(map[string]*spanAgg)}
}

// reserve claims a span ID before the span ends, so children can name
// it as their parent; -1 once the cap is reached.
func (t *tracer) reserve() int32 {
	if len(t.spans) >= t.max {
		return -1
	}
	t.spans = append(t.spans, traceSpan{})
	return int32(len(t.spans) - 1)
}

// set records a finished span under a reserved ID (the totals count it
// even without one).
func (t *tracer) set(id int32, name string, start, end int64, parent int32, seq uint64, units int64) {
	a := t.aggs[name]
	if a == nil {
		a = &spanAgg{}
		t.aggs[name] = a
	}
	a.count++
	a.ns += end - start
	a.units += units
	if id >= 0 {
		t.spans[id] = traceSpan{Name: name, Start: start, End: end, Parent: parent, Seq: seq}
	}
}

// add records a finished span and returns its ID.
func (t *tracer) add(name string, start, end int64, parent int32, seq uint64, units int64) int32 {
	id := t.reserve()
	t.set(id, name, start, end, parent, seq, units)
	return id
}

// perUnit returns a span name's total time per unit of work, perSpan
// its mean duration, and unitsPerSpan its mean work per span.
func (t *tracer) perUnit(name string) float64 {
	if a := t.aggs[name]; a != nil && a.units > 0 {
		return float64(a.ns) / float64(a.units)
	}
	return 0
}

func (t *tracer) perSpan(name string) float64 {
	if a := t.aggs[name]; a != nil && a.count > 0 {
		return float64(a.ns) / float64(a.count)
	}
	return 0
}

func (t *tracer) unitsPerSpan(name string) float64 {
	if a := t.aggs[name]; a != nil && a.count > 0 {
		return float64(a.units) / float64(a.count)
	}
	return 0
}

// write stores the kept spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
