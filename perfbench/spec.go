package main

import "fmt"

// spec is one workload: the inputs set-up builds and how the run drives
// them. Every field is fixed per workload; only the seed and the run
// length vary between runs.
type spec struct {
	name string
	// ingest selects the TCP server path (open loop); otherwise the
	// workload drives Fleet.Send in process (closed loop).
	ingest bool
	// wal puts a per-shard write-ahead log (wal.SyncOff) behind the
	// server, which then acks after the batch is written to the log;
	// without it the server acks on enqueue.
	wal bool

	streams int
	// intervalInstrs is both the generator's and the tracker's interval
	// length.
	intervalInstrs uint64
	// corpusIntervals and corpusScale size each program's generated
	// corpus; streams replay it cyclically from a seeded offset.
	corpusIntervals int
	corpusScale     float64
	zipf            float64 // popularity skew over streams (0 = uniform)

	// refRate is the offered load, in events/s, at which ACK and result
	// latency are reported: the ingest workloads' reference spans, the
	// fleet workloads' paced tails.
	refRate float64

	// Open-loop settings (ingest workloads).
	// rounds splits the measured part into that many pairs of a
	// reference-rate span and a saturation span; satFrames is the
	// saturation spans' total length. A saturation span's batches are
	// all due at once.
	rounds    int
	satFrames int

	// Fleet workload settings.
	repEvents   int // events sent per repetition
	maxResident int // Fleet.MaxResident (0 = no eviction)
	// pacedBatches is the length of each repetition's paced tail, sent
	// open loop at refRate after the closed-loop part.
	pacedBatches int
}

// batchEvents is the number of events in every batch.
const batchEvents = 512

// Shares of an open-loop run's --seconds spent warming up (unmeasured)
// and measured at the reference rate; the saturation spans come on top.
const (
	warmShare = 0.1
	refShare  = 0.4
)

// specs lists the workloads in the order BENCHMARK.json names them.
var specs = []spec{
	{
		name: "ingest-off", ingest: true,
		streams: 64, zipf: 0.2, intervalInstrs: 10_000_000, corpusIntervals: 12, corpusScale: 0.1,
		refRate: 6e6, rounds: 10, satFrames: 320_000,
	},
	{
		name: "ingest-wal", ingest: true, wal: true,
		streams: 64, zipf: 0.2, intervalInstrs: 10_000_000, corpusIntervals: 12, corpusScale: 0.1,
		refRate: 6e6, rounds: 10, satFrames: 160_000,
	},
	{
		name:    "fleet-fine",
		streams: 64, zipf: 0.2, intervalInstrs: 200_000, corpusIntervals: 400, corpusScale: 1,
		repEvents: 6 << 20, refRate: 6e6, pacedBatches: 1024,
	},
	{
		name:    "fleet-churn",
		streams: 2048, zipf: 1.0, intervalInstrs: 10_000_000, corpusIntervals: 12, corpusScale: 0.1,
		repEvents: 8 << 20, maxResident: 256, refRate: 6e6, pacedBatches: 4096,
	},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// shrink returns a copy of s sized for the package's own tests: the
// same code paths on far smaller inputs.
func (s spec) shrink() spec {
	s.corpusIntervals = 3
	if s.intervalInstrs < 10_000_000 {
		s.corpusIntervals = 40
	}
	if s.streams > 64 {
		s.streams = 128
		s.maxResident = 16
	} else {
		s.streams = 8
	}
	s.refRate /= 10
	s.repEvents = 1 << 18
	s.pacedBatches = min(s.pacedBatches, 128)
	s.rounds, s.satFrames = 2, 256
	return s
}
