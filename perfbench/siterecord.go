package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"pathlog"
	"pathlog/internal/apps"
	"pathlog/internal/core"
	"pathlog/internal/instrument"
)

// loadRequests sizes the site-record run: about 230k VM steps, 3 ms.
const loadRequests = 10

// recordPlan is one plan of the site-record rotation.
type recordPlan struct {
	name string // metric-safe name
	plan *instrument.Plan
	want *core.RecordStats // counts measured at set-up
}

// siteRecord runs the crash-free uServer load at the user site, rotating
// through the plans none, dynamic+static (with the syscall log) and all.
type siteRecord struct {
	sess  *pathlog.Session
	plans []recordPlan
}

func (w *siteRecord) setup(ctx context.Context, b *bench) error {
	in, err := analyze(ctx, b)
	if err != nil {
		return err
	}
	load := apps.UServerLoadScenario(loadRequests, apps.DefaultHTTPRequest)
	w.sess = pathlog.SessionOf(load)
	w.plans = []recordPlan{
		{name: "none", plan: load.Plan(instrument.MethodNone, instrument.Inputs{}, false)},
		{name: "ds", plan: load.Plan(instrument.MethodDynamicStatic, in, true)},
		{name: "all", plan: load.Plan(instrument.MethodAll, in, false)},
	}
	// The warm-up rotation fixes the counts every later op must repeat.
	for i := range w.plans {
		p := &w.plans[i]
		rec, st, err := w.sess.RecordWith(ctx, p.plan, nil)
		if err != nil {
			return fmt.Errorf("record %s: %w", p.name, err)
		}
		if rec != nil {
			return fmt.Errorf("record %s: the load run crashed", p.name)
		}
		p.want = st
	}
	none, ds := w.plans[0].want, w.plans[1].want
	if ds.TraceBits == 0 || w.plans[2].want.TraceBits <= ds.TraceBits || ds.SyslogBytes == 0 {
		return fmt.Errorf("plans log %d (ds) and %d (all) bits, %d syslog bytes: not the paper's ordering",
			ds.TraceBits, w.plans[2].want.TraceBits, ds.SyslogBytes)
	}
	if len(none.Stdout) == 0 {
		return fmt.Errorf("the load run printed nothing")
	}
	return nil
}

func (w *siteRecord) measure(ctx context.Context, b *bench) error {
	n := len(w.plans)
	start := b.rng.Intn(n)
	pinned := map[string]string{}
	var all, walls, tracedOps, untracedOps []time.Duration
	var slowDS, slowAll []float64
	byPlan := make([][]time.Duration, n)
	t0, c0 := time.Now(), cpuTime()
	for rot := 0; time.Since(t0) < b.window; rot++ {
		traced := b.traceThis(rot)
		var t [3]time.Duration
		for k := 0; k < n; k++ {
			i := (start + k) % n
			p := w.plans[i]
			octx, op := b.spans.start(ctx, traced, "op")
			_, sp := b.spans.start(octx, traced, "record."+p.name)
			sw := startWatch()
			rec, st, err := w.sess.RecordWith(ctx, p.plan, nil)
			d, wd := sw.stop()
			sp.end()
			t[i] = d
			all, walls = append(all, d), append(walls, wd)
			if traced {
				tracedOps = append(tracedOps, d)
				byPlan[i] = append(byPlan[i], d)
			} else {
				untracedOps = append(untracedOps, d)
			}
			if err != nil || rec != nil {
				b.check(false, "record %s: err %v, crashed %v", p.name, err, rec != nil)
				op.end()
				continue
			}
			b.check(bytes.Equal(st.Stdout, w.plans[0].want.Stdout) && st.TraceBits == p.want.TraceBits,
				"record %s: stdout differs from the none plan's, or %d bits logged (want %d)",
				p.name, st.TraceBits, p.want.TraceBits)
			b.pin(p.name, pinned, fmt.Sprintf("steps %d branches %d instrumented %d bits %d flushes %d syscalls %d syslog %d",
				st.Steps, st.BranchExecs, st.InstrumentedExecs, st.TraceBits, st.Flushes, st.Syscalls, st.SyslogBytes))
			op.end()
		}
		slowDS = append(slowDS, float64(t[1])/float64(t[0]))
		slowAll = append(slowAll, float64(t[2])/float64(t[0]))
		b.tick()
	}
	busy := cpuTime() - c0 - b.ref.cpu

	none, ds, full := w.plans[0].want, w.plans[1].want, w.plans[2].want
	b.latencies(all, walls)
	b.e2e["ops_per_s"] = b.perSecond(len(all), busy)
	b.e2e["record_slowdown_ds"] = metric{median(slowDS), "ratio"}
	b.e2e["record_slowdown_all"] = metric{median(slowAll), "ratio"}

	b.layer["vm.steps_per_op"] = metric{float64(none.Steps), "count"}
	b.layer["vm.branch_execs_per_op"] = metric{float64(none.BranchExecs), "count"}
	b.layer["instrument.log_bits_per_op"] = metric{float64(ds.TraceBits), "bits"}
	b.layer["instrument.instrumented_execs_per_op"] = metric{float64(ds.InstrumentedExecs), "count"}
	b.layer["trace.flushes_per_op"] = metric{float64(ds.Flushes), "count"}
	b.layer["oskernel.syscalls_per_op"] = metric{float64(ds.Syscalls), "count"}
	b.layer["oskernel.syslog_bytes_per_op"] = metric{float64(ds.SyslogBytes), "bytes"}
	if b.traced {
		self := b.spans.selfTimes()
		noneMS, allMS := median(msOf(byPlan[0])), median(msOf(byPlan[2]))
		k := b.ref.scale()
		b.layer["vm.ns_per_step"] = metric{k * noneMS * 1e6 / float64(none.Steps), "ns"}
		b.layer["instrument.ns_per_logged_bit"] = metric{k * (allMS - noneMS) * 1e6 / float64(full.TraceBits), "ns"}
		b.layer["record.none_ms"] = b.ms(self["record.none"].perOpMS())
		b.layer["record.ds_ms"] = b.ms(self["record.ds"].perOpMS())
		b.layer["record.all_ms"] = b.ms(self["record.all"].perOpMS())
		setupLayers(b, self)
		b.overhead(tracedOps, untracedOps)
	}
	return nil
}
