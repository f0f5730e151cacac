package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"phasekit/internal/fleet"
)

// timedStore is the fleet-churn workload's fleet.StateStore: a
// MemStore whose calls are timed and counted from outside.
type timedStore struct {
	mem                *fleet.MemStore
	clk                clock
	saves, loads, hits atomic.Int64
	saveNs, loadNs     atomic.Int64
}

func newTimedStore(clk clock) *timedStore { return &timedStore{mem: fleet.NewMemStore(), clk: clk} }

func (s *timedStore) Save(stream string, snap []byte) error {
	t := s.clk.now()
	err := s.mem.Save(stream, snap)
	s.saveNs.Add(s.clk.now() - t)
	s.saves.Add(1)
	return err
}

func (s *timedStore) Load(stream string) ([]byte, bool, error) {
	t := s.clk.now()
	b, ok, err := s.mem.Load(stream)
	s.loadNs.Add(s.clk.now() - t)
	s.loads.Add(1)
	if ok {
		s.hits.Add(1)
	}
	return b, ok, err
}

// runFleet drives Fleet.Send from one goroutine: repetitions of the
// whole schedule, each on a fresh fleet, until seconds have passed (at
// least minReps after the first). The first repetition warms caches
// and the heap and is checked but not measured.
//
// A repetition sends all but the last spec.pacedBatches batches in a
// closed loop, waits until they are applied, then sends the rest open
// loop at spec.refRate. The closed part gives throughput, CPU time and
// the Send call's p99 (the median measured repetition's). The paced
// tail gives the latencies, counted from each batch's due time as on
// the ingest workloads: ACK to the return of its Send (the library has
// accepted the batch), result to the OnInterval callback of an
// interval the batch closed. In a closed loop both would only restate
// throughput: every batch waits behind a full shard queue.
//
// Latency percentiles are the median over windows of at least winMin
// samples from consecutive repetitions; a fleet-churn tail closes
// fewer than winMin intervals.
func runFleet(ctx context.Context, in *inputs, seconds float64, minReps int, tr *tracer) (*e2e, error) {
	clk := newClock()
	res := newResults(in, clk)
	n := len(in.sched)
	closed := n - in.spec.pacedBatches
	scale := float64(batchEvents) / in.spec.refRate * 1e9 // ns per unit gap
	// Every buffer the loop fills is allocated before the heap baseline
	// is read, so live_heap_mb counts only the fleet's own growth.
	sendAt := make([]int64, n)
	sends := make([]int64, closed)
	total := 0
	for s := range in.oracle {
		total += len(in.oracle[s].phases)
	}
	// The windows are flushed at winMin, so they never hold more than
	// one repetition's samples on top of that.
	ackWin := make([]int64, 0, in.spec.pacedBatches+winMin)
	resWin := make([]int64, 0, total+winMin)
	lateWin := make([]int64, 0, in.spec.pacedBatches+winMin)
	const maxReps = 4096
	rates := make([]float64, 0, maxReps)
	sendP99 := make([]float64, 0, maxReps)
	ackP50, late := make([]float64, 0, maxReps), make([]float64, 0, maxReps)
	resP50, resP90, resP99 := make([]float64, 0, maxReps), make([]float64, 0, maxReps), make([]float64, 0, maxReps)
	// force closes a short window at the end of a run that filled none
	// (the package's tests run on small inputs).
	flush := func(force bool) {
		if len(ackWin) >= winMin || (force && len(ackP50) == 0 && len(ackWin) > 0) {
			ackP50, late = append(ackP50, ms(quantile(ackWin, 0.5))), append(late, ms(quantile(lateWin, 0.99)))
			ackWin, lateWin = ackWin[:0], lateWin[:0]
		}
		if len(resWin) >= winMin || (force && len(resP50) == 0 && len(resWin) > 0) {
			resP50 = append(resP50, ms(quantile(resWin, 0.5)))
			resP90 = append(resP90, ms(quantile(resWin, 0.9)))
			resP99 = append(resP99, ms(quantile(resWin, 0.99)))
			resWin = resWin[:0]
		}
	}
	var cpu time.Duration
	measured := 0
	out := &e2e{layers: map[string]float64{}}
	received := make([]int, len(in.streams))
	for _, r := range in.sched {
		received[r.stream]++
	}
	heap0 := liveHeap()
	start := time.Now()
	for rep := 0; ; rep++ {
		var store *timedStore
		cfg := fleet.Config{Tracker: in.tracker, OnInterval: res.onInterval}
		if in.spec.maxResident > 0 {
			store = newTimedStore(clk)
			cfg.Store, cfg.MaxResident = store, in.spec.maxResident
		}
		res.reset()
		f := fleet.New(cfg)
		failed := 0
		cpu0 := cpuTime()
		t0 := clk.now()
		due := 0.0
		for i, r := range in.sched {
			if i%256 == 0 && ctx.Err() != nil {
				f.Close()
				return nil, ctx.Err()
			}
			if i == closed {
				f.ClassifierStats() // barrier: every batch sent so far is applied
				if rep > 0 {
					measured++
					cpu += cpuTime() - cpu0
					rates = append(rates, float64(closed*batchEvents)/(float64(clk.now()-t0)/1e9))
					sendP99 = append(sendP99, ms(quantile(sends, 0.99)))
				}
				due = float64(clk.now() + int64(time.Millisecond))
			}
			if i >= closed {
				due += in.gap[i] * scale
				sendAt[i] = int64(due)
				for d := sendAt[i] - clk.now(); d > 0; d = sendAt[i] - clk.now() {
					time.Sleep(time.Duration(d))
				}
			}
			evs, cycles := in.batch(r)
			s := clk.now()
			err := f.Send(fleet.Batch{Stream: in.streams[r.stream].name, Seq: uint64(r.k) + 1, Cycles: cycles, Events: evs})
			e := clk.now()
			if err != nil {
				failed++
			}
			if i < closed {
				sendAt[i] = s
				sends[i] = e - s
			} else if rep > 0 {
				ackWin = append(ackWin, e-sendAt[i])
				lateWin = append(lateWin, s-sendAt[i])
			}
			if tr != nil {
				tr.add("fleet.Send", s, e, -1, uint64(i)+1, int64(len(evs)))
			}
		}
		f.ClassifierStats() // barrier: every batch is applied
		if rep > 0 {
			for s := range in.streams {
				o := &in.oracle[s]
				for j, at := range res.at[s] {
					i := int(in.perStream[s][o.closeAt[j]])
					if i < closed {
						continue
					}
					resWin = append(resWin, at-sendAt[i])
					if tr != nil {
						tr.add("result", sendAt[i], at, -1, uint64(i)+1, 1)
					}
				}
			}
		}
		m := f.Metrics()
		failed += int(m.DroppedBatches + m.RejectedBatches)
		out.attempted += n
		out.failed += failed
		last := rep+1 >= maxReps || (measured >= minReps && time.Since(start).Seconds() >= seconds)
		flush(last)
		if last {
			out.heapMB = float64(int64(liveHeap())-int64(heap0)) / (1 << 20)
			out.layers["fleet.dropped_batches"] = float64(m.DroppedBatches)
			out.layers["fleet.duplicate_batches"] = float64(m.DuplicateBatches)
			if store != nil {
				out.layers["state.save_ns"] = perCall(store.saveNs.Load(), store.saves.Load())
				out.layers["state.load_ns"] = perCall(store.loadNs.Load(), store.loads.Load())
				out.layers["state.loads_per_batch"] = float64(store.hits.Load()) / float64(n)
			}
		}
		f.Close()
		if err := res.check(in, received); err != nil {
			return nil, &checkError{fmt.Errorf("repetition %d: %w", rep, err)}
		}
		if failed > 0 {
			return nil, &checkError{fmt.Errorf("repetition %d: %d of %d batches failed", rep, failed, n)}
		}
		if last {
			break
		}
	}
	out.cpuNsPerEvent = float64(cpu) / float64(measured*closed*batchEvents)
	out.eventsPerS = median(rates)
	out.sendP99 = median(sendP99)
	out.ackP50 = median(ackP50)
	out.resP50, out.resP90, out.resP99 = median(resP50), median(resP90), median(resP99)
	out.lateP99 = median(late)
	return out, nil
}

func perCall(ns, calls int64) float64 {
	if calls == 0 {
		return 0
	}
	return float64(ns) / float64(calls)
}
