package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"phasekit/internal/fleet"
	"phasekit/internal/server"
	"phasekit/internal/wal"
	"phasekit/internal/wire"
)

// maxGather bounds the frames one generator pass coalesces into a
// connection write, so a generator catching up never builds one huge
// write.
const maxGather = 128

// ingestSUT is the system under test of the ingest workloads, in this
// process: a Fleet, optional per-shard WAL logs, and a Server on a
// loopback listener, driven over real TCP connections.
type ingestSUT struct {
	in     *inputs
	clk    clock
	res    *results
	fl     *fleet.Fleet
	logs   []*wal.Log
	srv    *server.Server
	ln     net.Listener
	addr   string
	served chan error
	conns  []net.Conn
	bufs   [][]byte // per connection: the generator's write buffer
	rd     sync.WaitGroup

	// Per schedule index: when the batch was due, written, done
	// writing, and acked (ns on clk; 0 = not yet).
	dueAt, writeAt, writeEnd, ackAt []int64
	acks, nacks, strays             atomic.Int64
	sent                            int   // schedule prefix written so far
	genNs                           int64 // generator time spent stamping and writing
	traced                          bool
}

// newIngestSUT allocates the run's records; start brings the system up.
func newIngestSUT(in *inputs, traced bool) *ingestSUT {
	n := len(in.sched)
	s := &ingestSUT{
		in: in, clk: newClock(), traced: traced,
		dueAt: make([]int64, n), writeAt: make([]int64, n), writeEnd: make([]int64, n), ackAt: make([]int64, n),
	}
	s.res = newResults(in, s.clk)
	s.bufs = make([][]byte, conns())
	for c := range s.bufs {
		s.bufs[c] = make([]byte, 0, maxGather*in.frameSize)
	}
	return s
}

// start brings the system up. On error the caller still closes it.
func (s *ingestSUT) start(ctx context.Context, dir string) (err error) {
	in := s.in
	s.fl = fleet.New(fleet.Config{Tracker: in.tracker, OnInterval: s.res.onInterval})
	var logs []*wal.Log
	if in.spec.wal {
		for i := 0; i < s.fl.Shards(); i++ {
			l, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal", fmt.Sprintf("shard-%d", i)), Sync: wal.SyncOff})
			if err != nil {
				return err
			}
			s.logs = append(s.logs, l)
		}
		logs = s.logs
	}
	if s.srv, err = server.New(server.Config{Fleet: s.fl, WAL: logs}); err != nil {
		return err
	}
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	s.addr = s.ln.Addr().String()
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(s.ln) }()

	deadline, _ := ctx.Deadline()
	var d net.Dialer
	for i := 0; i < conns(); i++ {
		c, err := d.DialContext(ctx, "tcp", s.addr)
		if err != nil {
			return err
		}
		s.conns = append(s.conns, c)
		s.rd.Add(1)
		go s.read(c)
		if err := c.SetWriteDeadline(deadline); err != nil {
			return err
		}
		if _, err := c.Write([]byte(wire.Magic)); err != nil {
			return err
		}
	}
	return nil
}

// conns is the number of client connections: one per CPU.
func conns() int { return runtime.NumCPU() }

// read parses one connection's responses and records each ACK's time
// against its batch. It returns when the connection closes.
func (s *ingestSUT) read(c net.Conn) {
	defer s.rd.Done()
	br := bufio.NewReaderSize(c, 1<<16)
	var buf []byte
	for {
		p, err := wire.ReadFrame(br, buf, 0)
		if err != nil {
			return
		}
		buf = p[:0]
		now := s.clk.now()
		f, err := wire.DecodeFrame(p)
		i := int(f.Seq) - 1
		if err != nil || i < 0 || i >= len(s.ackAt) {
			s.strays.Add(1)
			continue
		}
		switch f.Tag {
		case wire.TagAck:
			s.ackAt[i] = now
			s.acks.Add(1)
		case wire.TagNack:
			s.nacks.Add(1)
		default:
			s.strays.Add(1)
		}
	}
}

// close stops everything: client connections, server, fleet, logs.
// Safe on a partly started system and idempotent.
func (s *ingestSUT) close() error {
	errs := []error{s.stopFront()}
	if s.fl != nil {
		s.fl.Close()
		s.fl = nil
	}
	for _, l := range s.logs {
		errs = append(errs, l.Close())
	}
	s.logs = nil
	return errors.Join(errs...)
}

// stopFront closes the client connections and shuts the server down,
// leaving the fleet and logs running. Idempotent.
func (s *ingestSUT) stopFront() error {
	var errs []error
	for _, c := range s.conns {
		c.Close()
	}
	s.conns = nil
	s.rd.Wait()
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, s.srv.Shutdown(ctx))
		cancel()
		if s.ln != nil {
			// Shutdown closes the listener only once Serve has
			// registered it; close it here too so a Serve that has not
			// got that far still returns.
			s.ln.Close()
		}
		if s.served != nil {
			errs = append(errs, <-s.served)
			s.served = nil
		}
		s.srv = nil
	}
	return errors.Join(errs...)
}

// generate offers the span's batches at rate events/s, the span
// starting now: each batch is written at its due time, and batches due
// while the generator is busy go out together in its next pass. It
// returns once all are written.
func (s *ingestSUT) generate(ctx context.Context, sp span, rate float64) error {
	scale := float64(batchEvents) / rate * 1e9 // ns per unit gap
	due := float64(s.clk.now() + int64(time.Millisecond))
	for i := sp.from; i < sp.to; i++ {
		due += s.in.gap[i] * scale
		s.dueAt[i] = int64(due)
	}
	bufs := s.bufs
	for i := sp.from; i < sp.to; {
		if err := ctx.Err(); err != nil {
			return err
		}
		now := s.clk.now()
		if d := s.dueAt[i] - now; d > 0 {
			time.Sleep(time.Duration(d))
			continue
		}
		first := i
		for ; i < sp.to && i-first < maxGather && s.dueAt[i] <= now; i++ {
			r := s.in.sched[i]
			c := int(r.stream) % len(s.conns)
			bufs[c] = s.in.stampFrame(bufs[c], r, uint64(i)+1)
			s.writeAt[i] = now
		}
		for c, b := range bufs {
			if len(b) == 0 {
				continue
			}
			if _, err := s.conns[c].Write(b); err != nil {
				return fmt.Errorf("writing frames: %w", err)
			}
			bufs[c] = b[:0]
			if s.traced {
				end := s.clk.now()
				for j := first; j < i; j++ {
					if int(s.in.sched[j].stream)%len(s.conns) == c {
						s.writeEnd[j] = end
					}
				}
			}
		}
		s.genNs += s.clk.now() - now
		s.sent = i
	}
	return nil
}

// await waits until every batch written so far is answered, or the
// timeout passes.
func (s *ingestSUT) await(ctx context.Context, timeout time.Duration) error {
	limit := time.Now().Add(timeout)
	for s.acks.Load()+s.nacks.Load() < int64(s.sent) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(limit) {
			return fmt.Errorf("%d of %d batches unanswered after %v", int64(s.sent)-s.acks.Load()-s.nacks.Load(), s.sent, timeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// ackLatencies returns the span's ACK latencies from due time, and how
// many of its batches were not acked.
func (s *ingestSUT) ackLatencies(sp span) (lat []int64, missing int) {
	for i := sp.from; i < sp.to; i++ {
		if s.ackAt[i] == 0 {
			missing++
			continue
		}
		lat = append(lat, s.ackAt[i]-s.dueAt[i])
	}
	return lat, missing
}

// resultLatencies returns, for every interval closed by a batch of the
// span, the time from that batch's due time to its OnInterval
// callback. Valid after a fleet barrier.
func (s *ingestSUT) resultLatencies(sp span) []int64 {
	type result struct{ i, lat int64 }
	var rs []result
	for st := range s.in.streams {
		o := &s.in.oracle[st]
		for j, at := range s.res.at[st] {
			i := int(s.in.perStream[st][o.closeAt[j]])
			if i >= sp.from && i < sp.to {
				rs = append(rs, result{int64(i), at - s.dueAt[i]})
			}
		}
	}
	sort.Slice(rs, func(a, b int) bool { return rs[a].i < rs[b].i })
	lat := make([]int64, len(rs))
	for k, r := range rs {
		lat[k] = r.lat
	}
	return lat
}

// lateness returns the generator's lateness (write start minus due
// time) over the span.
func (s *ingestSUT) lateness(sp span) []int64 {
	lat := make([]int64, 0, sp.to-sp.from)
	for i := sp.from; i < sp.to; i++ {
		lat = append(lat, s.writeAt[i]-s.dueAt[i])
	}
	return lat
}

// barrier returns once the fleet has applied every batch enqueued so
// far: the request travels each shard's FIFO queue behind them.
func (s *ingestSUT) barrier() { s.fl.ClassifierStats() }

// verify checks the run's outputs: every written batch answered with an
// ACK, in group mode one WAL append per ACK, and every stream's phase
// sequence equal to the oracle's for the batches it received.
func (s *ingestSUT) verify() error {
	if n, a := s.nacks.Load(), s.acks.Load(); n != 0 || a != int64(s.sent) {
		return fmt.Errorf("%d batches written, %d acked, %d nacked", s.sent, a, n)
	}
	if n := s.strays.Load(); n != 0 {
		return fmt.Errorf("%d responses matched no batch", n)
	}
	if len(s.logs) > 0 {
		var appends uint64
		for _, l := range s.logs {
			a, _ := l.Stats()
			appends += a
		}
		if appends != uint64(s.acks.Load()) {
			return fmt.Errorf("%d WAL appends for %d acked batches", appends, s.acks.Load())
		}
	}
	received := make([]int, len(s.in.streams))
	for i := 0; i < s.sent; i++ {
		received[s.in.sched[i].stream]++
	}
	return s.res.check(s.in, received)
}

// behindLimit is the generator lateness (p99 at the reference rate)
// beyond which a run is flagged as not measuring the program.
const behindLimit = 5 * time.Millisecond

// runIngest brings the system up, warms it, offers the rounds of a
// reference-rate span and a saturation span, checks the outputs and
// tears everything down.
func runIngest(ctx context.Context, in *inputs, dir string, tr *tracer, rep *report) (out *e2e, startup time.Duration, err error) {
	s := newIngestSUT(in, tr != nil)
	heap0 := liveHeap()
	t0 := time.Now()
	err = s.start(ctx, dir)
	startup = time.Since(t0)
	rep.addr = s.addr
	defer func() {
		if cerr := s.close(); cerr != nil && err == nil {
			err = fmt.Errorf("teardown: %w", cerr)
		}
		if err == nil {
			err = verifyGone(s.addr)
		}
	}()
	if err != nil {
		return nil, startup, err
	}
	out = &e2e{}
	rate := in.spec.refRate
	if err := s.offer(ctx, in.warm, rate); err != nil {
		return nil, startup, err
	}
	s.barrier()
	var eps, cpu []float64
	var genNs int64
	for _, rd := range in.rounds {
		g := s.genNs
		if err := s.offer(ctx, rd.ref, rate); err != nil {
			return nil, startup, err
		}
		genNs += s.genNs - g
		e, c, err := s.saturate(ctx, rd.sat)
		if err != nil {
			return nil, startup, err
		}
		eps, cpu = append(eps, e), append(cpu, c)
	}
	s.barrier()
	out.eventsPerS, out.cpuNsPerEvent = median(eps), median(cpu)
	var lat, res, late []int64
	refFrames := 0
	for _, rd := range in.rounds {
		l, _ := s.ackLatencies(rd.ref)
		lat = append(lat, l...)
		res = append(res, s.resultLatencies(rd.ref)...)
		late = append(late, s.lateness(rd.ref)...)
		refFrames += rd.ref.to - rd.ref.from
		if tr != nil {
			s.traceSpans(tr, rd.ref)
		}
	}
	out.ackP50, out.ackP99 = ms(quantile(lat, 0.5)), ms(windowQuantile(lat, 0.99))
	out.resP50, out.resP90, out.resP99 = ms(quantile(res, 0.5)), ms(windowQuantile(res, 0.9)), ms(windowQuantile(res, 0.99))
	out.lateP99 = ms(quantile(late, 0.99))
	out.genNsPerFrame = float64(genNs) / float64(refFrames)
	out.attempted = s.sent
	out.failed = s.sent - int(s.acks.Load())
	m := s.srv.Metrics()
	fm := s.fl.Metrics()
	// The live heap is read with the front end stopped: what remains is
	// the state the fleet (and logs) hold for the streams. The server's
	// per-connection buffer pools grow with the peak number of batches
	// in flight, which varies from run to run with the timing.
	if err := s.stopFront(); err != nil {
		return nil, startup, fmt.Errorf("teardown: %w", err)
	}
	s.barrier()
	out.heapMB = float64(int64(liveHeap())-int64(heap0)) / (1 << 20)
	out.layers = map[string]float64{
		"server.nacks":            float64(m.Nacks),
		"server.wal_failures":     float64(m.WALFailures),
		"fleet.dropped_batches":   float64(fm.DroppedBatches),
		"fleet.duplicate_batches": float64(fm.DuplicateBatches),
	}
	if m.Bursts > 0 {
		out.layers["server.frames_per_burst"] = float64(m.BurstFrames) / float64(m.Bursts)
	}
	if err := s.verify(); err != nil {
		return out, startup, &checkError{err}
	}
	return out, startup, nil
}

// offer generates the span at rate and waits for its answers.
func (s *ingestSUT) offer(ctx context.Context, sp span, rate float64) error {
	if err := s.generate(ctx, sp, rate); err != nil {
		return err
	}
	return s.await(ctx, 10*time.Second)
}

// Latency windows: a tail percentile is the median of that percentile
// over consecutive windows of at least winMin samples (at most winMax
// windows), so one stall of the shared host moves one window, not the
// figure.
const (
	winMin = 1000
	winMax = 8
)

func windowQuantile(lat []int64, q float64) int64 {
	k := min(winMax, len(lat)/winMin)
	if k <= 1 {
		return quantile(lat, q)
	}
	p := make([]float64, k)
	for w := range p {
		p[w] = float64(quantile(lat[w*len(lat)/k:(w+1)*len(lat)/k], q))
	}
	return int64(median(p))
}

// saturate offers a saturation span back to back (every batch due at
// once, so the generator writes as fast as the connections take
// frames). It returns the acked events per second over the middle 80%
// of the span in ACK order, and the process CPU time per event: with
// the system saturated, no idle time is in it.
func (s *ingestSUT) saturate(ctx context.Context, sp span) (eps, cpuNs float64, err error) {
	cpu0 := cpuTime()
	if err := s.offer(ctx, sp, math.Inf(1)); err != nil {
		return 0, 0, err
	}
	cpuNs = float64(cpuTime()-cpu0) / float64(s.in.events(sp))
	at := append([]int64(nil), s.ackAt[sp.from:sp.to]...)
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	a, b := len(at)/10, len(at)-1-len(at)/10
	return float64((b-a)*batchEvents) / (float64(at[b]-at[a]) / 1e9), cpuNs, nil
}

// traceSpans turns the span's recorded times into trace spans: per
// batch, a root from due time to ACK with the generator's write and the
// wait for the ACK as children, and each interval result from its
// closing batch's due time to the OnInterval callback.
func (s *ingestSUT) traceSpans(tr *tracer, sp span) {
	events := int64(batchEvents)
	for i := sp.from; i < sp.to; i++ {
		seq := uint64(i) + 1
		root := tr.add("batch", s.dueAt[i], s.ackAt[i], -1, seq, events)
		tr.add("gen.write", s.writeAt[i], s.writeEnd[i], root, seq, events)
		tr.add("ack", s.writeEnd[i], s.ackAt[i], root, seq, events)
	}
	for st := range s.in.streams {
		o := &s.in.oracle[st]
		for j, at := range s.res.at[st] {
			i := int(s.in.perStream[st][o.closeAt[j]])
			if i >= sp.from && i < sp.to {
				tr.add("result", s.dueAt[i], at, -1, uint64(i)+1, 1)
			}
		}
	}
}

// verifyGone checks that a torn-down server's address refuses
// connections.
func verifyGone(addr string) error {
	if addr == "" {
		return nil
	}
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err == nil {
		c.Close()
		return fmt.Errorf("listener %s still accepts connections after teardown", addr)
	}
	return nil
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
