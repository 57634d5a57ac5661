package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"pathlog/internal/corpus"
	"pathlog/internal/fleet"
	"pathlog/internal/replay"
	"pathlog/internal/vm"
)

// TestRunnerEngineParity is the proof that the replay engine default
// changes only speed: for the same four uServer reports, the in-process
// runner on the tree-walking oracle, the in-process runner on the default
// engine, and a shard worker's Execute (what shardworker and shardworkerd
// serve) must return identical runs — run counts, outcomes and encoded
// profiles, byte for byte. Under the low-coverage plan some reports
// reproduce and one exhausts its run budget, so both outcomes are
// compared. No time budget: a wall-clock cutoff is the one thing the
// engines may legitimately disagree on.
func TestRunnerEngineParity(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a four-report corpus three times, once on the tree walker")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	c, s3 := fleetCorpus(t, 1, 2, 3, 4)
	bounds := replay.Options{MaxRuns: replayBounds.MaxRuns, Workers: 1}

	tree := bounds
	tree.Engine = vm.TreeFactory
	oracle, err := (&corpus.InProcessRunner{Prog: s3.Prog, Spec: s3.Spec, Opts: tree}).ReplayShard(ctx, c.Reports)
	if err != nil {
		t.Fatalf("tree runner: %v", err)
	}
	def, err := (&corpus.InProcessRunner{Prog: s3.Prog, Spec: s3.Spec, Opts: bounds}).ReplayShard(ctx, c.Reports)
	if err != nil {
		t.Fatalf("default runner: %v", err)
	}
	req := corpus.ShardRequest{
		Version:  corpus.ProtocolVersion,
		Scenario: s3.Name,
		MaxRuns:  bounds.MaxRuns,
		Workers:  bounds.Workers,
	}
	for _, rep := range c.Reports {
		data, err := rep.Rec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		req.Envelopes = append(req.Envelopes, json.RawMessage(data))
	}
	resp := (&fleet.WorkerCore{}).Execute(ctx, req)
	if resp.Error != "" {
		t.Fatalf("worker: %s", resp.Error)
	}

	legs := []struct {
		name string
		runs []corpus.ReportRun
	}{{"default", def}, {"worker", resp.Results}}
	for _, leg := range legs {
		if len(leg.runs) != len(oracle) {
			t.Fatalf("%s returned %d runs for %d reports", leg.name, len(leg.runs), len(oracle))
		}
	}
	reproduced := 0
	for i, want := range oracle {
		if want.Reproduced {
			reproduced++
		}
		t.Logf("report %s: %d runs, reproduced %v", c.Reports[i].Signature, want.Runs, want.Reproduced)
		wantProf := encodeProfile(t, want)
		for _, leg := range legs {
			got := leg.runs[i]
			if got.Runs != want.Runs || got.Reproduced != want.Reproduced || got.TimedOut != want.TimedOut {
				t.Errorf("report %s: %s replayed %d runs (reproduced %v, timed out %v), oracle %d runs (%v, %v)",
					c.Reports[i].Signature, leg.name, got.Runs, got.Reproduced, got.TimedOut,
					want.Runs, want.Reproduced, want.TimedOut)
			}
			if gotProf := encodeProfile(t, got); !bytes.Equal(gotProf, wantProf) {
				t.Errorf("report %s: %s profile diverges from the oracle's:\n got %s\nwant %s",
					c.Reports[i].Signature, leg.name, gotProf, wantProf)
			}
		}
	}
	if reproduced == 0 {
		t.Fatal("no report reproduced on the oracle — the fixture exercises only exhausted searches")
	}
}

// encodeProfile renders a run's profile as JSON with wall-clock fields
// stripped.
func encodeProfile(t *testing.T, run corpus.ReportRun) []byte {
	t.Helper()
	if run.Profile == nil {
		t.Fatal("run carries no profile")
	}
	data, err := json.Marshal(normalize(run.Profile))
	if err != nil {
		t.Fatal(err)
	}
	return data
}
