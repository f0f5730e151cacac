package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"phasekit/internal/core"
	"phasekit/internal/rng"
	"phasekit/internal/trace"
	"phasekit/internal/uarch"
	"phasekit/internal/wire"
	"phasekit/internal/workload"
)

// corpus is one synthetic program's generated event stream, cut into
// batch-sized chunks.
type corpus struct {
	events []trace.BranchEvent // len = chunks * batch
	cycles []uint64            // per chunk: the timing model's cycles for its events
	frames []byte              // per chunk: a pre-encoded batch frame, frameSize bytes each
}

func (c *corpus) chunks() int { return len(c.cycles) }

// streamDef is one input stream: a program replayed cyclically from a
// chunk offset.
type streamDef struct {
	name   string
	prog   int
	offset int
}

// sendRef is one scheduled batch: the k-th batch of a stream.
type sendRef struct {
	stream int32
	k      int32
}

// span is a half-open range of the schedule.
type span struct{ from, to int }

// round is one reference-rate span and the saturation span after it.
type round struct{ ref, sat span }

// oracleStream is one stream's expected output: the phase ID of every
// interval a plain core.Tracker closes on the stream's batches, and the
// per-stream index of the batch whose events closed it.
type oracleStream struct {
	phases  []int32
	closeAt []int32
}

// inputs is everything set-up builds. The program under test receives
// only these, never the seed.
type inputs struct {
	spec    spec
	tracker core.Config
	corpora []corpus
	streams []streamDef
	sched   []sendRef
	// gap is each batch's Poisson inter-arrival gap at one batch per
	// second; an open-loop span at rate r spaces its batches by
	// gap*batch/r (the ingest schedules, the fleet paced tails).
	gap []float64
	// warm is the unmeasured warm-up span at the reference rate; each
	// round then offers a measured span at the reference rate and a
	// saturation span (ingest workloads only).
	warm   span
	rounds []round
	// perStream maps a stream's k-th batch to its schedule index.
	perStream [][]int32
	oracle    []oracleStream
	frameSize int
	digest    string
}

// streamNameFmt gives every stream name the same length, so batch
// frames of one program chunk differ only in fixed-offset fields.
const streamNameFmt = "s%04d"

// Offsets of the stamped fields in an encoded batch frame: the length
// prefix (4), section header (2), seq (8), stream seq (8), and the
// stream name's length (4).
const (
	frameSeqOff       = 6
	frameStreamSeqOff = 14
	frameNameOff      = 26
)

// buildInputs generates every input of one run from the seed: program
// corpora, stream assignment, schedule, pre-encoded frames (ingest),
// and the phase oracle. seconds sizes the open-loop schedule.
func buildInputs(ctx context.Context, sp spec, seed uint64, seconds float64) (*inputs, error) {
	in := &inputs{spec: sp, tracker: core.DefaultConfig()}
	in.tracker.IntervalInstrs = sp.intervalInstrs
	if err := in.generate(ctx); err != nil {
		return nil, err
	}
	r := rng.NewXoshiro256(rng.Combine(seed, 0xbe4c))
	in.assign(r)
	if sp.ingest {
		in.scheduleOpenLoop(r, seconds)
		if err := in.encodeFrames(); err != nil {
			return nil, err
		}
	} else {
		in.pick(r, sp.repEvents/batchEvents)
		in.gaps(r)
	}
	in.index()
	if err := in.runOracle(ctx); err != nil {
		return nil, err
	}
	in.digest = in.hash()
	return in, nil
}

// corpusSink collects a generated execution's branch events and
// per-event cycles.
type corpusSink struct {
	events []trace.BranchEvent
	cycles []uint64
}

func (s *corpusSink) Event(ev uarch.BlockEvent, cycles uint64) {
	s.events = append(s.events, trace.BranchEvent{PC: ev.BranchPC, Instrs: ev.Instrs})
	s.cycles = append(s.cycles, cycles)
}

func (s *corpusSink) EndInterval(int) {}

// generate runs workload.Stream over the eleven synthetic programs.
func (in *inputs) generate(ctx context.Context) error {
	sp := in.spec
	for _, name := range workload.Names() {
		if err := ctx.Err(); err != nil {
			return err
		}
		ws, err := workload.Get(name)
		if err != nil {
			return err
		}
		sink := &corpusSink{}
		opts := workload.Options{IntervalInstrs: sp.intervalInstrs, Scale: sp.corpusScale, MaxIntervals: sp.corpusIntervals}
		if _, err := workload.Stream(ws, opts, sink); err != nil {
			return fmt.Errorf("generating %s: %w", name, err)
		}
		n := len(sink.events) / batchEvents
		if n == 0 {
			return fmt.Errorf("generating %s: %d events, fewer than one batch", name, len(sink.events))
		}
		c := corpus{events: sink.events[:n*batchEvents], cycles: make([]uint64, n)}
		for i, cy := range sink.cycles[:n*batchEvents] {
			c.cycles[i/batchEvents] += cy
		}
		in.corpora = append(in.corpora, c)
	}
	return nil
}

// assign gives each stream a program (a seeded permutation dealt round
// robin, so every seed replays the same program mix) and a seeded start
// offset into that program's corpus.
func (in *inputs) assign(r *rng.Xoshiro256) {
	order := make([]int, len(in.corpora))
	r.Perm(order)
	in.streams = make([]streamDef, in.spec.streams)
	for i := range in.streams {
		p := order[i%len(order)]
		in.streams[i] = streamDef{name: fmt.Sprintf(streamNameFmt, i), prog: p, offset: r.Intn(in.corpora[p].chunks())}
	}
}

// popularity returns the cumulative pick weights of a seeded Zipf
// ranking of the streams.
func (in *inputs) popularity(r *rng.Xoshiro256) []float64 {
	rank := make([]int, len(in.streams))
	r.Perm(rank)
	cum := make([]float64, len(rank))
	total := 0.0
	for i, k := range rank {
		total += 1 / math.Pow(float64(k+1), in.spec.zipf)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return cum
}

// pick lays out n batches drawn by popularity, each the picked
// stream's next batch.
func (in *inputs) pick(r *rng.Xoshiro256, n int) {
	cum := in.popularity(r)
	in.sched = make([]sendRef, 0, n)
	next := make([]int32, len(in.streams))
	for ; n > 0; n-- {
		s := sort.SearchFloat64s(cum, r.Float64())
		if s == len(cum) {
			s--
		}
		in.sched = append(in.sched, sendRef{stream: int32(s), k: next[s]})
		next[s]++
	}
}

// scheduleOpenLoop lays out the open-loop schedule: the warm-up span,
// then rounds of a reference-rate span and a saturation span. Spreading
// the measurement over rounds lets a median set aside a slow spell of
// the shared host.
func (in *inputs) scheduleOpenLoop(r *rng.Xoshiro256, seconds float64) {
	sp := in.spec
	perSec := sp.refRate / float64(batchEvents)
	warm := int(warmShare * seconds * perSec)
	ref := int(refShare * seconds * perSec / float64(sp.rounds))
	sat := sp.satFrames / sp.rounds
	in.pick(r, warm+sp.rounds*(ref+sat))
	in.gaps(r)
	in.warm = span{0, warm}
	for i, at := 0, warm; i < sp.rounds; i, at = i+1, at+ref+sat {
		in.rounds = append(in.rounds, round{ref: span{at, at + ref}, sat: span{at + ref, at + ref + sat}})
	}
}

// gaps draws a Poisson inter-arrival gap for every scheduled batch.
func (in *inputs) gaps(r *rng.Xoshiro256) {
	in.gap = make([]float64, len(in.sched))
	for i := range in.gap {
		in.gap[i] = -math.Log(1 - r.Float64())
	}
}

// encodeFrames pre-encodes one batch frame per program chunk with
// wire.AppendBatchFrame. Frames of one chunk differ between streams
// and sends only in the stream name, seq and stream seq, which
// stampFrame patches in at their fixed offsets.
func (in *inputs) encodeFrames() error {
	placeholder := fmt.Sprintf(streamNameFmt, 0)
	for p := range in.corpora {
		c := &in.corpora[p]
		for i := 0; i < c.chunks(); i++ {
			start := len(c.frames)
			c.frames = wire.AppendBatchFrame(c.frames, wire.Batch{
				Stream: placeholder,
				Cycles: c.cycles[i],
				Events: c.events[i*batchEvents : (i+1)*batchEvents],
			})
			size := len(c.frames) - start
			if in.frameSize == 0 {
				in.frameSize = size
			} else if size != in.frameSize {
				return fmt.Errorf("batch frames differ in size: %d vs %d", size, in.frameSize)
			}
		}
	}
	// The stamped offsets are this package's knowledge of the frame
	// layout; prove it on one frame before any run relies on it.
	ref := sendRef{stream: int32(len(in.streams) - 1), k: 1}
	f := in.stampFrame(nil, ref, 0x0102030405060708)
	fv, err := wire.DecodeFrameView(f[wire.FramePrefix:], nil)
	evs, cycles := in.batch(ref)
	if err != nil || fv.Seq != 0x0102030405060708 || fv.StreamSeq != 2 ||
		string(fv.Stream) != in.streams[ref.stream].name || fv.Cycles != cycles || len(fv.Events) != len(evs) {
		return fmt.Errorf("stamped frame does not decode to its batch (err %v)", err)
	}
	return nil
}

// batch returns the events and cycles of one scheduled batch.
func (in *inputs) batch(r sendRef) ([]trace.BranchEvent, uint64) {
	p, i := in.chunk(r)
	c := &in.corpora[p]
	b := batchEvents
	return c.events[i*b : (i+1)*b], c.cycles[i]
}

func (in *inputs) chunk(r sendRef) (prog, chunk int) {
	st := &in.streams[r.stream]
	c := &in.corpora[st.prog]
	return st.prog, (st.offset + int(r.k)) % c.chunks()
}

// stampFrame appends the pre-encoded frame of one scheduled batch with
// its stream name, connection seq and stream seq (k+1) stamped in.
func (in *inputs) stampFrame(dst []byte, r sendRef, seq uint64) []byte {
	p, i := in.chunk(r)
	start := len(dst)
	dst = append(dst, in.corpora[p].frames[i*in.frameSize:(i+1)*in.frameSize]...)
	f := dst[start:]
	binary.LittleEndian.PutUint64(f[frameSeqOff:], seq)
	binary.LittleEndian.PutUint64(f[frameStreamSeqOff:], uint64(r.k)+1)
	copy(f[frameNameOff:], in.streams[r.stream].name)
	return dst
}

// index builds the per-stream schedule index.
func (in *inputs) index() {
	in.perStream = make([][]int32, len(in.streams))
	for i, r := range in.sched {
		in.perStream[r.stream] = append(in.perStream[r.stream], int32(i))
	}
}

// runOracle feeds every stream's scheduled batches through a plain
// core.Tracker, exactly as the fleet applies them, and records the
// phase sequence the system under test must reproduce.
func (in *inputs) runOracle(ctx context.Context) error {
	in.oracle = make([]oracleStream, len(in.streams))
	workers := runtime.NumCPU()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := w; s < len(in.streams); s += workers {
				if errs[w] = ctx.Err(); errs[w] != nil {
					return
				}
				in.oracleStream(s)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (in *inputs) oracleStream(s int) {
	t := core.NewTracker(in.streams[s].name, in.tracker)
	o := &in.oracle[s]
	for k, i := range in.perStream[s] {
		evs, cycles := in.batch(in.sched[i])
		t.Cycles(cycles)
		for _, ev := range evs {
			if res, ok := t.Branch(ev.PC, ev.Instrs); ok {
				o.phases = append(o.phases, int32(res.PhaseID))
				o.closeAt = append(o.closeAt, int32(k))
			}
		}
	}
}

// expected returns the oracle's phase sequence for the first n batches
// of stream s.
func (in *inputs) expected(s, n int) []int32 {
	o := &in.oracle[s]
	m := sort.Search(len(o.closeAt), func(j int) bool { return int(o.closeAt[j]) >= n })
	return o.phases[:m]
}

// events returns the number of events in the schedule range.
func (in *inputs) events(sp span) int { return (sp.to - sp.from) * batchEvents }

// hash digests everything the program receives: corpora, frames,
// stream assignment and the schedule.
func (in *inputs) hash() string {
	h := sha256.New()
	var buf bytes.Buffer
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		buf.Write(b[:])
	}
	put(uint64(len(in.corpora)))
	for _, c := range in.corpora {
		put(uint64(len(c.events)))
		for _, ev := range c.events {
			put(ev.PC)
			put(uint64(ev.Instrs))
		}
		for _, cy := range c.cycles {
			put(cy)
		}
		h.Write(buf.Bytes())
		buf.Reset()
		h.Write(c.frames)
	}
	for _, st := range in.streams {
		buf.WriteString(st.name)
		put(uint64(st.prog))
		put(uint64(st.offset))
	}
	for _, r := range in.sched {
		put(uint64(r.stream))
		put(uint64(r.k))
	}
	for _, g := range in.gap {
		put(math.Float64bits(g))
	}
	h.Write(buf.Bytes())
	return hex.EncodeToString(h.Sum(nil))
}
