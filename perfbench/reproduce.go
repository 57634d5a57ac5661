package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sort"
	"time"

	"pathlog"
	"pathlog/internal/apps"
	"pathlog/internal/instrument"
)

// replayMaxRuns bounds each search; the reports below need 80 to 98 runs.
const replayMaxRuns = 4000

// reproReport is one bug report of the reproduce rotation.
type reproReport struct {
	name string
	sess *pathlog.Session
	rec  *pathlog.Recording
}

// reproduce replays four uServer reports recorded under dynamic+static
// (high coverage) with one search worker. They were picked because their
// searches cost alike (80-98 runs, 50-125 ms), so p50 and p90 fall inside
// one group of ops.
type reproduce struct {
	reports []reproReport
}

func (w *reproduce) setup(ctx context.Context, b *bench) error {
	in, err := analyze(ctx, b)
	if err != nil {
		return err
	}
	w.reports = nil
	for _, r := range []struct {
		name    string
		exp     int
		syscall bool
	}{{"exp2", 2, true}, {"exp3", 3, true}, {"exp4", 4, true}, {"exp4-nosys", 4, false}} {
		scn, err := apps.UServerScenario(r.exp, 72)
		if err != nil {
			return err
		}
		sess := pathlog.SessionOf(scn,
			pathlog.WithReplayBudget(replayMaxRuns, 0),
			pathlog.WithReplayWorkers(1))
		// Without the syscall log, replay searches the syscall results
		// under the §3.3 models (the paper's Table 5).
		plan := scn.Plan(instrument.MethodDynamicStatic, in, r.syscall)
		rec, _, err := sess.RecordWith(ctx, plan, nil)
		if err != nil {
			return fmt.Errorf("record %s: %w", r.name, err)
		}
		if rec == nil {
			return fmt.Errorf("record %s: the user run did not crash", r.name)
		}
		w.reports = append(w.reports, reproReport{name: r.name, sess: sess, rec: rec})
	}
	// Warm-up rotation.
	for _, r := range w.reports {
		res, err := r.sess.Replay(ctx, r.rec)
		if err != nil {
			return fmt.Errorf("replay %s: %w", r.name, err)
		}
		if !res.Reproduced {
			return fmt.Errorf("replay %s: not reproduced in %d runs", r.name, res.Runs)
		}
	}
	return nil
}

func (w *reproduce) measure(ctx context.Context, b *bench) error {
	pinned := map[string]string{}
	var all, walls, tracedOps, untracedOps []time.Duration
	byReport := map[string][]time.Duration{}
	var runs, aborts, peak int
	var calls, nodes, atoms, fallbacks int64
	var tracedRunMS float64
	var tracedRuns int
	order := make([]int, len(w.reports))
	for i := range order {
		order[i] = i
	}
	t0, c0 := time.Now(), cpuTime()
	for rot := 0; time.Since(t0) < b.window; rot++ {
		traced := b.traceThis(rot)
		b.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			r := w.reports[i]
			octx, op := b.spans.start(ctx, traced, "op")
			_, sp := b.spans.start(octx, traced, "replay.reproduce")
			sw := startWatch()
			res, err := r.sess.Replay(ctx, r.rec)
			d, wd := sw.stop()
			sp.end()
			all, walls = append(all, d), append(walls, wd)
			if traced {
				tracedOps = append(tracedOps, d)
				byReport[r.name] = append(byReport[r.name], d)
			} else {
				untracedOps = append(untracedOps, d)
			}
			if err != nil || !res.Reproduced {
				b.check(false, "replay %s: err %v", r.name, err)
				op.end()
				continue
			}
			_, sp = b.spans.start(octx, traced, "replay.verify")
			ok := r.sess.Verify(res.InputBytes, r.rec.Crash)
			sp.end()
			b.check(ok, "replay %s: the found input does not crash at %v", r.name, r.rec.Crash)
			s := res.SolverStats
			b.pin(r.name, pinned, fmt.Sprintf("runs %d aborts %d pending-peak %d solver %+v input %x",
				res.Runs, res.Aborts, res.PendingPeak, s, inputHash(res.InputBytes)))
			runs += res.Runs
			aborts += res.Aborts
			peak = max(peak, res.PendingPeak)
			calls += int64(s.Calls)
			nodes += s.Nodes
			atoms += s.Atoms
			fallbacks += s.Fallbacks
			if traced {
				tracedRunMS += float64(d.Nanoseconds()) / 1e6
				tracedRuns += res.Runs
			}
			op.end()
			b.tick()
		}
	}
	busy := cpuTime() - c0 - b.ref.cpu

	ops := float64(len(all))
	b.latencies(all, walls)
	b.e2e["ops_per_s"] = b.perSecond(len(all), busy)

	b.layer["replay.runs_per_op"] = metric{float64(runs) / ops, "count"}
	b.layer["replay.aborts_per_op"] = metric{float64(aborts) / ops, "count"}
	b.layer["replay.pending_peak"] = metric{float64(peak), "count"}
	b.layer["solver.calls_per_op"] = metric{float64(calls) / ops, "count"}
	b.layer["solver.nodes_per_op"] = metric{float64(nodes) / ops, "count"}
	b.layer["solver.atoms_per_op"] = metric{float64(atoms) / ops, "count"}
	b.layer["solver.fallbacks_per_op"] = metric{float64(fallbacks) / ops, "count"}
	if b.traced {
		self := b.spans.selfTimes()
		if tracedRuns > 0 {
			b.layer["replay.ms_per_run"] = b.ms(tracedRunMS / float64(tracedRuns))
		}
		for _, r := range w.reports {
			b.layer["replay."+r.name+".op_ms_p50"] = b.ms(median(msOf(byReport[r.name])))
		}
		b.layer["replay.verify_ms"] = b.ms(self["replay.verify"].perOpMS())
		setupLayers(b, self)
		b.overhead(tracedOps, untracedOps)
	}
	return nil
}

// inputHash fingerprints a reproducing input, stream by stream.
func inputHash(in map[string][]byte) []byte {
	names := make([]string, 0, len(in))
	for n := range in {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s=%x;", n, in[n])
	}
	return h.Sum(nil)[:8]
}
