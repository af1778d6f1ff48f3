package main

import (
	"bytes"
	"fmt"
	"time"

	"dynamo"
	"dynamo/internal/checkpoint"
	"dynamo/perfbench/measure"
)

// Resume jobs: every registered workload at 8 threads and scale 0.1 under
// dynamo-reuse-pn, over resumeSeeds consecutive seeds, checkpointed every
// resumeCkptEvery events.
const (
	resumePolicy    = "dynamo-reuse-pn"
	resumeThreads   = 8
	resumeScale     = 0.1
	resumeSeeds     = 6
	resumeCkptEvery = 5000
	smokeResumeJobs = 2
)

// resumeJob is one captured run: its middle checkpoint, serialized, and
// the uninterrupted result the resume must reproduce.
type resumeJob struct {
	workload string
	seed     int64
	ckpt     []byte
	// event is the middle checkpoint's event index; ref the
	// uninterrupted result.
	event uint64
	ref   *dynamo.Result
}

func resumeSession(seed int64, extra ...dynamo.Option) (*dynamo.Session, error) {
	opts := append([]dynamo.Option{
		dynamo.WithPolicy(resumePolicy),
		dynamo.WithThreads(resumeThreads),
		dynamo.WithScale(resumeScale),
		dynamo.WithSeed(seed),
	}, extra...)
	return dynamo.New(dynamo.DefaultConfig(), opts...)
}

// captureStats collects the capture side's per-layer samples.
type captureStats struct {
	runMS, bytes, writeMS []float64
	count                 uint64
}

// capture runs one job uninterrupted with periodic checkpoints, writes
// each checkpoint with checkpoint.Write and keeps the middle one. Jobs too
// short to reach a checkpoint return nil.
func capture(e *env, cs *captureStats, workload string, seed int64) (*resumeJob, error) {
	var (
		cks    [][]byte
		events []uint64
		wrErr  error
	)
	sink := func(ck *dynamo.Checkpoint) {
		var b bytes.Buffer
		t0 := time.Now()
		if err := checkpoint.Write(&b, ck); err != nil && wrErr == nil {
			wrErr = err
		}
		t1 := time.Now()
		cs.writeMS = append(cs.writeMS, ms(t1.Sub(t0)))
		cs.bytes = append(cs.bytes, float64(b.Len()))
		e.spans.add("checkpoint", "checkpoint", "write", t0, t1, "job", fmt.Sprintf("%s/%d", workload, seed))
		cks = append(cks, b.Bytes())
		events = append(events, ck.Event)
	}
	s, err := resumeSession(seed, dynamo.WithCheckpoint(resumeCkptEvery, sink))
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	res, err := s.Run(workload)
	t1 := time.Now()
	if err == nil {
		err = wrErr
	}
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	cs.runMS = append(cs.runMS, ms(t1.Sub(t0)))
	cs.count += uint64(len(cks))
	e.spans.add("checkpoint", "run", workload, t0, t1, "seed", fmt.Sprint(seed))
	if len(cks) == 0 {
		return nil, nil
	}
	mid := len(cks) / 2
	return &resumeJob{workload: workload, seed: seed, ckpt: cks[mid], event: events[mid], ref: res}, nil
}

// resumeWorkload captures every job of the set (one set-up step per seed),
// then resumes every job from its middle checkpoint, round after round,
// until the window has run its length; rounds are whole, so every window
// resumes the same mix of jobs. An operation is one resumed job: read the
// checkpoint back, restore, and run to completion. Every resume must
// reproduce its uninterrupted run's cycles and event count.
func resumeWorkload(e *env) (*result, error) {
	r := &result{layers: map[string]measure.Value{}}
	var cs captureStats
	var jobs []*resumeJob
	seeds := resumeSeeds
	if e.smoke {
		seeds = 1
	}
	probe := newProbe(true)
	for i := 0; i < seeds; i++ {
		t0 := time.Now()
		for _, w := range dynamo.Workloads() {
			if e.smoke && len(jobs) == smokeResumeJobs {
				break
			}
			j, err := capture(e, &cs, w, e.seed+int64(i))
			if err != nil {
				probe.end()
				return nil, err
			}
			if j != nil {
				jobs = append(jobs, j)
			}
		}
		r.setups = append(r.setups, time.Since(t0))
	}
	r.setupRefMS = probe.end()
	if len(jobs) == 0 {
		return nil, fmt.Errorf("no job reached a checkpoint")
	}

	var readMS, resumeMS []float64
	m := startMeter(false)
	for round := 0; round == 0 || !e.smoke && !e.done(m.start); round++ {
		for _, j := range jobs {
			t0 := time.Now()
			ck, err := dynamo.ReadCheckpoint(bytes.NewReader(j.ckpt))
			t1 := time.Now()
			var res *dynamo.Result
			if err == nil {
				var s *dynamo.Session
				if s, err = resumeSession(j.seed); err == nil {
					res, err = s.Resume(j.workload, ck)
				}
			}
			t2 := time.Now()
			r.attempted++
			r.ops = append(r.ops, ms(t2.Sub(t0)))
			readMS = append(readMS, ms(t1.Sub(t0)))
			resumeMS = append(resumeMS, ms(t2.Sub(t1)))
			m.between()
			e.spans.add("checkpoint", "resume", j.workload, t0, t2, "seed", fmt.Sprint(j.seed))
			switch {
			case err != nil:
				r.failed++
				r.problemf("resume %s seed %d: %v", j.workload, j.seed, err)
			case res.Cycles != j.ref.Cycles || res.SimEvents != j.ref.SimEvents:
				r.problemf("resume %s seed %d: %d cycles / %d events, uninterrupted %d / %d",
					j.workload, j.seed, res.Cycles, res.SimEvents, j.ref.Cycles, j.ref.SimEvents)
			}
		}
	}
	r.win = m.stop()

	var t modelTotals
	var replayed uint64
	for _, j := range jobs {
		t.add(j.ref)
		replayed += j.event
	}
	t.metrics(r.layers)
	l := r.layers
	l["machine.run_ms_p50"] = measure.Value{Value: measure.Median(cs.runMS), Unit: "ms"}
	l["checkpoint.count"] = count(cs.count)
	l["checkpoint.bytes_p50"] = measure.Value{Value: measure.Median(cs.bytes), Unit: "bytes"}
	l["checkpoint.write_ms_p50"] = measure.Value{Value: measure.Median(cs.writeMS), Unit: "ms"}
	l["checkpoint.read_ms_p50"] = measure.Value{Value: measure.Median(readMS), Unit: "ms"}
	l["checkpoint.resume_ms_p50"] = measure.Value{Value: measure.Median(resumeMS), Unit: "ms"}
	l["checkpoint.replay_share"] = measure.Value{Value: float64(replayed) / float64(max(t.events, 1)), Unit: "ratio"}
	return r, nil
}
