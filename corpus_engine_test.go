package pathlog

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"pathlog/internal/apps"
	"pathlog/internal/corpus"
	"pathlog/internal/instrument"
	"pathlog/internal/static"
	"pathlog/internal/vm"
)

// TestCorpusBalanceEngineParity is the proof that the corpus replay engine
// changes only speed: a CorpusBalance over uServer experiments 1–4,
// recorded under a low-coverage dynamic plan, must walk a byte-identical
// trajectory — plans, per-member runs, merged profiles — on the
// tree-walking oracle (WithEngine("tree")) and on the default bytecode VM.
// It also pins that WithEngine reaches the corpus runner at all.
func TestCorpusBalanceEngineParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a corpus balance loop twice, once on the tree walker")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	var trajectories [][]byte
	for _, engine := range []string{"tree", "bytecode"} {
		sess, c := engineCorpus(t, ctx, WithEngine(engine))
		r := sess.corpusRunner(CorpusOptions{})
		runner, ok := r.(*corpus.InProcessRunner)
		if !ok {
			t.Fatalf("%s: corpus runner is %T, want the in-process runner", engine, r)
		}
		isTree := reflect.ValueOf(runner.Opts.Engine).Pointer() == reflect.ValueOf(vm.TreeFactory).Pointer()
		if isTree != (engine == "tree") {
			t.Fatalf("%s session: corpus replay runs on the tree walker = %v", engine, isTree)
		}
		tr, err := sess.CorpusBalance(ctx, c, BalanceOptions{TargetReplayRuns: 200, Shards: 1})
		if err != nil {
			t.Fatalf("%s: CorpusBalance: %v", engine, err)
		}
		if !tr.Converged || len(tr.Points) < 2 {
			t.Fatalf("%s: balance walked %d generations, converged %v (%s) — the fixture must refine at least once",
				engine, len(tr.Points), tr.Converged, tr.Reason)
		}
		t.Logf("%s: %d generations, %s", engine, len(tr.Points), tr.Reason)
		trajectories = append(trajectories, trajectoryBytes(t, tr))
	}
	if !bytes.Equal(trajectories[0], trajectories[1]) {
		t.Errorf("corpus balance trajectory depends on the engine:\n tree     %s\n bytecode %s",
			trajectories[0], trajectories[1])
	}
}

// engineCorpus builds a session over uServer experiment 3 with the
// low-coverage dynamic plan of the harness's fleet experiment, and a corpus
// of experiments 1–4 recorded under that plan, each member carrying its
// user input for re-recording.
func engineCorpus(t *testing.T, ctx context.Context, opts ...Option) (*Session, *Corpus) {
	t.Helper()
	s3, err := apps.UServerScenario(3, 72)
	if err != nil {
		t.Fatal(err)
	}
	sess := SessionOf(s3, append([]Option{
		WithAnalysisSpec(apps.UServerAnalysisScenario().Spec),
		WithDynamicBudget(6, 0),
		WithStaticOptions(static.Options{LibAsSymbolic: true}),
		WithSyscallLog(),
		WithStrategy(Dynamic()),
		WithReplayBudget(800, 0),
		WithReplayWorkers(1),
	}, opts...)...)
	plan, err := sess.Plan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var members []CorpusMember
	for exp := 1; exp <= 4; exp++ {
		se, err := apps.UServerScenario(exp, 72)
		if err != nil {
			t.Fatal(err)
		}
		rec, _, err := sess.RecordWith(ctx, plan, se.UserBytes)
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil {
			t.Fatalf("exp%d did not crash", exp)
		}
		members = append(members, CorpusMember{
			Rec:       rec,
			ModTime:   time.Unix(1_700_000_000, 0).Add(time.Duration(exp) * time.Hour),
			UserBytes: se.UserBytes,
		})
	}
	c, err := BuildCorpus(members, CorpusIngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return sess, c
}

// trajectoryBytes encodes a corpus trajectory — plans, per-member runs,
// merged profiles, stop reason — with its wall-clock fields zeroed, the
// only fields two identical searches may disagree on.
func trajectoryBytes(t *testing.T, tr *CorpusTrajectory) []byte {
	t.Helper()
	zero := func(p *instrument.SearchProfile) {
		for _, bc := range p.Branches {
			bc.SolverTime = 0
		}
	}
	for i := range tr.Points {
		out := tr.Points[i].Outcome
		tr.Points[i].MeanReplayMS, out.MeanWallMS = 0, 0
		zero(out.Profile)
		for j := range out.Runs {
			out.Runs[j].WallMS = 0
			zero(out.Runs[j].Profile)
		}
	}
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatalf("encode trajectory: %v", err)
	}
	return data
}
