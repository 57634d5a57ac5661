package main

import (
	"context"

	"pathlog/internal/apps"
	"pathlog/internal/concolic"
	"pathlog/internal/instrument"
	"pathlog/internal/ir"
	"pathlog/internal/static"
)

// Analysis budgets. Both are run counts with no time budget, so set-up
// does the same work on every machine.
const (
	highCoverageRuns = 60 // the harness's high-coverage uServer budget
	lowCoverageRuns  = 6  // the harness's low-coverage uServer budget
)

// analyze compiles the uServer and runs both pre-deployment analyses over
// the developer's test requests, as the harness does, each under its own
// span.
func analyze(ctx context.Context, b *bench) (instrument.Inputs, error) {
	an := apps.UServerAnalysisScenario()
	// The compile cache is process-wide; clearing it makes every set-up
	// pay the compile, as a fresh process does.
	ir.ResetCacheForTesting()
	_, sp := b.spans.start(ctx, b.traced, "ir.compile")
	_, err := ir.Compile(an.Prog)
	sp.end()
	if err != nil {
		return instrument.Inputs{}, err
	}
	_, sp = b.spans.start(ctx, b.traced, "concolic.explore")
	dyn := an.AnalyzeDynamicContext(ctx, concolic.Options{MaxRuns: highCoverageRuns})
	sp.end()
	_, sp = b.spans.start(ctx, b.traced, "static.analyze")
	stat := an.AnalyzeStatic(static.Options{LibAsSymbolic: true})
	sp.end()
	return instrument.Inputs{Dynamic: dyn, Static: stat}, ctx.Err()
}

// setupLayers reports the set-up layers' self times, where the workload's
// set-up has them, and the benchmark's own per-op cost: the op span's self
// time, which is output checks and bookkeeping.
func setupLayers(b *bench, self map[string]selfTime) {
	for _, l := range []struct{ metric, span string }{
		{"ir.compile_ms", "ir.compile"},
		{"concolic.explore_ms", "concolic.explore"},
		{"static.analyze_ms", "static.analyze"},
		{"session.analyze_ms", "session.analyze"},
	} {
		if t, ok := self[l.span]; ok {
			b.layer[l.metric] = b.ms(t.perOpMS())
		}
	}
	// The pre-deployment analyses: concolic exploration and static
	// analysis, which report-loop runs through Session.Analyze.
	b.layer["analysis_ms"] = b.ms(self["concolic.explore"].perOpMS() +
		self["static.analyze"].perOpMS() + self["session.analyze"].perOpMS())
	b.layer["bench.self_ms_per_op"] = b.ms(self["op"].perOpMS())
}
