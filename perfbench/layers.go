package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"phasekit/internal/classifier"
	"phasekit/internal/core"
	"phasekit/internal/fleet"
	"phasekit/internal/signature"
	"phasekit/internal/trace"
	"phasekit/internal/wal"
	"phasekit/internal/wire"
)

// ladderBatches is how many of the schedule's first batches each
// ladder step replays.
const ladderBatches = 4096

// layerLadder replays the workload's first batches through each layer's
// public entry point in turn, from one goroutine, with a span around
// every call: the per-layer costs and the single-threaded baseline.
func layerLadder(ctx context.Context, in *inputs, dir string, tr *tracer) (map[string]float64, error) {
	if in.frameSize == 0 {
		if err := in.encodeFrames(); err != nil {
			return nil, err
		}
	}
	refs := in.sched[:min(len(in.sched), ladderBatches)]
	l := &ladder{in: in, tr: tr, refs: refs, m: map[string]float64{}}
	steps := []struct {
		name string
		fn   func(parent int32) error
	}{
		{"wire", l.decode},
		{"signature+classifier", l.classify},
		{"core", l.branch},
		{"state", l.snapshots},
		{"fleet", l.fleetSend},
		{"wal", func(parent int32) error { return l.walAppend(parent, filepath.Join(dir, "ladder-wal")) }},
	}
	for _, st := range steps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		runtime.GC() // so no step pays for the previous one's garbage
		id := tr.reserve()
		start := tr.clk.now()
		err := st.fn(id)
		tr.set(id, "ladder."+st.name, start, tr.clk.now(), -1, 0, int64(len(refs)))
		if err != nil {
			return nil, fmt.Errorf("layer ladder %s: %w", st.name, err)
		}
	}
	m := l.m
	m["wire.decode_ns_per_event"] = tr.perUnit("wire.DecodeFrameView")
	m["wire.bytes_per_event"] = float64(in.frameSize) / float64(batchEvents)
	m["signature.add_ns_per_event"] = tr.perUnit("signature.Add")
	m["signature.compress_ns"] = tr.perSpan("signature.CompressInto")
	m["classifier.classify_ns"] = tr.perSpan("classifier.Classify")
	m["core.branch_ns_per_event"] = tr.perUnit("core.Branch")
	m["core.boundary_ns"] = tr.perSpan("core.boundary")
	m["predictor.ns_per_interval"] = m["core.boundary_ns"] - m["signature.compress_ns"] - m["classifier.classify_ns"]
	m["state.snapshot_ns"] = tr.perSpan("core.Snapshot")
	m["state.snapshot_bytes"] = tr.unitsPerSpan("core.Snapshot")
	m["state.restore_ns"] = tr.perSpan("core.Restore")
	m["fleet.send_ns_per_event"] = tr.perUnit("ladder.fleet.pass")
	m["wal.append_ns_per_batch"] = tr.perSpan("wal.Append")
	return m, nil
}

type ladder struct {
	in   *inputs
	tr   *tracer
	refs []sendRef
	m    map[string]float64
	// trackers are the core step's per-stream trackers, kept for the
	// state step.
	trackers map[int32]*core.Tracker
}

func (l *ladder) decode(parent int32) error {
	var frame []byte
	var evs []trace.BranchEvent
	clk := l.tr.clk
	for i, r := range l.refs {
		frame = l.in.stampFrame(frame[:0], r, uint64(i)+1)
		s := clk.now()
		fv, err := wire.DecodeFrameView(frame[wire.FramePrefix:], evs)
		e := clk.now()
		if err != nil {
			return err
		}
		evs = fv.Events[:cap(fv.Events)]
		l.tr.add("wire.DecodeFrameView", s, e, parent, uint64(i)+1, int64(len(fv.Events)))
	}
	return nil
}

// cut returns the end of the next run of events starting at j: up to
// and including the event that completes an interval of limit
// instructions, given pending instructions already counted. boundary
// reports whether the run ends an interval.
func cut(evs []trace.BranchEvent, j int, pending, limit uint64) (end int, instrs uint64, boundary bool) {
	instrs = pending
	for end = j; end < len(evs); {
		instrs += uint64(evs[end].Instrs)
		end++
		if instrs >= limit {
			return end, instrs, true
		}
	}
	return end, instrs, false
}

// classify runs the accumulator, signature compression and classifier
// as the tracker composes them, checking every phase ID against the
// oracle.
func (l *ladder) classify(parent int32) error {
	type streamState struct {
		acc            *signature.Accumulator
		cls            *classifier.Classifier
		instrs, cycles uint64
		n              int
	}
	cfg := l.in.tracker
	sig := make(signature.Vector, cfg.Dims)
	states := map[int32]*streamState{}
	clk := l.tr.clk
	for i, r := range l.refs {
		st := states[r.stream]
		if st == nil {
			st = &streamState{acc: signature.NewAccumulator(cfg.Dims), cls: classifier.New(cfg.Classifier)}
			states[r.stream] = st
		}
		evs, cycles := l.in.batch(r)
		st.cycles += cycles
		seq := uint64(i) + 1
		for j := 0; j < len(evs); {
			end, instrs, boundary := cut(evs, j, st.instrs, cfg.IntervalInstrs)
			s := clk.now()
			for _, ev := range evs[j:end] {
				st.acc.Add(ev.PC, ev.Instrs)
			}
			l.tr.add("signature.Add", s, clk.now(), parent, seq, int64(end-j))
			st.instrs, j = instrs, end
			if !boundary {
				continue
			}
			s = clk.now()
			sig = cfg.Compress.CompressInto(sig, st.acc)
			l.tr.add("signature.CompressInto", s, clk.now(), parent, seq, 1)
			cpi := float64(st.cycles) / float64(st.instrs)
			s = clk.now()
			res := st.cls.Classify(sig, cpi)
			l.tr.add("classifier.Classify", s, clk.now(), parent, seq, 1)
			if want := l.in.oracle[r.stream].phases[st.n]; int32(res.PhaseID) != want {
				return fmt.Errorf("stream %d interval %d: classifier phase %d, oracle %d", r.stream, st.n, res.PhaseID, want)
			}
			st.acc.Reset()
			st.instrs, st.cycles = 0, 0
			st.n++
		}
	}
	return nil
}

// branch runs Tracker.Branch, timing non-boundary runs of events apart
// from the boundary calls that classify and predict.
func (l *ladder) branch(parent int32) error {
	cfg := l.in.tracker
	l.trackers = map[int32]*core.Tracker{}
	var ts []*core.Tracker
	clk := l.tr.clk
	for i, r := range l.refs {
		t := l.trackers[r.stream]
		if t == nil {
			t = core.NewTracker(l.in.streams[r.stream].name, cfg)
			l.trackers[r.stream] = t
			ts = append(ts, t)
		}
		evs, cycles := l.in.batch(r)
		t.Cycles(cycles)
		seq := uint64(i) + 1
		for j := 0; j < len(evs); {
			end, _, boundary := cut(evs, j, t.Pending(), cfg.IntervalInstrs)
			last := end
			if boundary {
				last--
			}
			s := clk.now()
			for _, ev := range evs[j:last] {
				t.Branch(ev.PC, ev.Instrs)
			}
			l.tr.add("core.Branch", s, clk.now(), parent, seq, int64(last-j))
			if boundary {
				ev := evs[last]
				s = clk.now()
				_, ok := t.Branch(ev.PC, ev.Instrs)
				l.tr.add("core.boundary", s, clk.now(), parent, seq, 1)
				if !ok {
					return fmt.Errorf("stream %d: expected an interval boundary", r.stream)
				}
			}
			j = end
		}
	}
	var mru, scanned uint64
	var classified, tableLen int
	for _, t := range ts {
		st := t.ClassifierIndexStats()
		mru += st.MRUHits
		scanned += st.EntriesScanned
		classified += t.Classifications()
		tableLen += t.ClassifierTableLen()
	}
	if classified > 0 {
		l.m["classifier.rows_per_classify"] = float64(scanned) / float64(classified)
		l.m["classifier.mru_hit_ratio"] = float64(mru) / float64(classified)
	}
	l.m["classifier.table_len"] = float64(tableLen) / float64(len(ts))
	return nil
}

// snapshots serializes every core-step tracker and restores it into a
// fresh one.
func (l *ladder) snapshots(parent int32) error {
	var buf []byte
	clk := l.tr.clk
	for s, t := range l.trackers {
		st := clk.now()
		buf = t.AppendSnapshot(buf[:0])
		l.tr.add("core.Snapshot", st, clk.now(), parent, uint64(s), int64(len(buf)))
		fresh := core.NewTracker(l.in.streams[s].name, l.in.tracker)
		st = clk.now()
		err := fresh.Restore(buf)
		l.tr.add("core.Restore", st, clk.now(), parent, uint64(s), 1)
		if err != nil {
			return err
		}
	}
	return nil
}

// fleetSend pushes the batches through a one-shard fleet (with the
// workload's store and resident limit) and waits until all are applied.
func (l *ladder) fleetSend(parent int32) error {
	cfg := fleet.Config{Shards: 1, Tracker: l.in.tracker}
	if l.in.spec.maxResident > 0 {
		cfg.Store, cfg.MaxResident = fleet.NewMemStore(), l.in.spec.maxResident
	}
	clk := l.tr.clk
	pass := l.tr.reserve()
	start := clk.now()
	f := fleet.New(cfg)
	defer f.Close()
	for i, r := range l.refs {
		evs, cycles := l.in.batch(r)
		s := clk.now()
		err := f.Send(fleet.Batch{Stream: l.in.streams[r.stream].name, Seq: uint64(r.k) + 1, Cycles: cycles, Events: evs})
		l.tr.add("fleet.Send", s, clk.now(), pass, uint64(i)+1, int64(len(evs)))
		if err != nil {
			return err
		}
	}
	s := clk.now()
	f.ClassifierStats()
	l.tr.add("fleet.barrier", s, clk.now(), pass, 0, 0)
	l.tr.set(pass, "ladder.fleet.pass", start, clk.now(), parent, 0, int64(len(l.refs)*batchEvents))
	return nil
}

// walAppend appends and commits batches to one log, in the mode the
// WAL workload runs (wal.SyncOff).
func (l *ladder) walAppend(parent int32, dir string) error {
	defer os.RemoveAll(dir)
	lg, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncOff})
	if err != nil {
		return err
	}
	clk := l.tr.clk
	commits := make([]int64, 0, len(l.refs))
	events := 0
	for i, r := range l.refs {
		evs, cycles := l.in.batch(r)
		rec := &wal.Record{Stream: l.in.streams[r.stream].name, Seq: uint64(r.k) + 1, Cycles: cycles, Events: evs}
		s := clk.now()
		lsn, err := lg.Append(rec)
		m := clk.now()
		l.tr.add("wal.Append", s, m, parent, uint64(i)+1, int64(len(evs)))
		if err == nil {
			err = lg.Commit(lsn)
		}
		e := clk.now()
		l.tr.add("wal.Commit", m, e, parent, uint64(i)+1, 1)
		if err != nil {
			lg.Close()
			return err
		}
		commits = append(commits, e-m)
		events += len(evs)
	}
	if err := lg.Close(); err != nil {
		return err
	}
	l.m["wal.bytes_per_event"] = float64(dirBytes(dir)) / float64(events)
	l.m["wal.commit_p50_us"] = float64(quantile(commits, 0.5)) / 1e3
	l.m["wal.commit_p99_us"] = float64(quantile(commits, 0.99)) / 1e3
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
