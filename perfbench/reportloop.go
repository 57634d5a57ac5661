package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pathlog"
	"pathlog/internal/apps"
	"pathlog/internal/corpus"
	"pathlog/internal/instrument"
	"pathlog/internal/ir"
	"pathlog/internal/static"
	"pathlog/internal/store"
)

// Report-loop shape. Every round POSTs the same multiset of envelopes, so
// the intake counters and the balance work are the same in every round;
// the seed only orders the mix.
const (
	copiesPerReport = 50 // copies of each crash report per round
	unknownStamps   = 4  // envelopes whose stamp names no retained plan
	// balanceMaxRuns is the replay budget; generation 0's blowup member
	// exhausts it, which fixes the cost of that search.
	balanceMaxRuns = 800
	balanceTarget  = 200 // corpus-mean replay runs the balance works toward
)

// The intake clock is pinned: recency weights come from journal times, and
// a clock that crosses a second boundary mid-round would change the
// weights, and with them the plan the balance refines to.
var intakeEpoch = time.Date(2011, 4, 10, 12, 0, 0, 0, time.UTC)

// envelope is one POST of the mix.
type envelope struct {
	name string
	data []byte
	sig  string // corpus signature; empty for unknown-stamp envelopes
	user map[string][]byte
}

// reportLoop is one fleet round trip per round: intake server, POST mix,
// IngestIntake, CorpusBalance (in-process, one shard, one worker), GET
// /plan. Each round starts from a fresh plan store and intake directory,
// because a second balance over generation-0 reports is refused as stale
// lineage.
type reportLoop struct {
	scn      *pathlog.Scenario // the session scenario (uServer experiment 3)
	plan     *pathlog.Plan     // generation 0, under which the mix was recorded
	progHash string
	reports  []envelope // one per crash report
	unknown  []envelope
	client   *http.Client
	rounds   int // numbers round directories
}

// roundStats is what one round measured.
type roundStats struct {
	posts       []time.Duration // CPU time
	postWalls   []time.Duration
	toPlan      time.Duration
	generations int
	replayRuns  int
	metrics     pathlog.IntakeMetrics
}

// sessionOptions configure every session of the workload alike: the
// low-coverage dynamic plan of the harness's fleet experiment.
func sessionOptions() []pathlog.Option {
	return []pathlog.Option{
		pathlog.WithAnalysisSpec(apps.UServerAnalysisScenario().Spec),
		pathlog.WithDynamicBudget(lowCoverageRuns, 0),
		pathlog.WithStaticOptions(static.Options{LibAsSymbolic: true}),
		pathlog.WithSyscallLog(),
		pathlog.WithStrategy(pathlog.Dynamic()),
		pathlog.WithReplayBudget(balanceMaxRuns, 0),
		pathlog.WithReplayWorkers(1),
	}
}

func (w *reportLoop) setup(ctx context.Context, b *bench) error {
	scn, err := apps.UServerScenario(3, 72)
	if err != nil {
		return err
	}
	w.scn = scn
	ir.ResetCacheForTesting()
	_, sp := b.spans.start(ctx, b.traced, "ir.compile")
	_, err = ir.Compile(scn.Prog)
	sp.end()
	if err != nil {
		return err
	}
	sess := pathlog.SessionOf(scn, sessionOptions()...)
	_, sp = b.spans.start(ctx, b.traced, "session.analyze")
	_, err = sess.Analyze(ctx)
	sp.end()
	if err != nil {
		return err
	}
	if w.plan, err = sess.Plan(ctx); err != nil {
		return err
	}
	w.progHash = pathlog.ProgramHash(sess.Program())

	// The corpus replays under one session, so its members share one input
	// space: exp5's two connections do not fit exp3's one.
	w.reports, w.unknown = nil, nil
	for exp := 1; exp <= 4; exp++ {
		s, err := apps.UServerScenario(exp, 72)
		if err != nil {
			return err
		}
		rec, _, err := sess.RecordWith(ctx, w.plan, s.UserBytes)
		if err != nil {
			return fmt.Errorf("record exp%d: %w", exp, err)
		}
		if rec == nil {
			return fmt.Errorf("record exp%d: the user run did not crash", exp)
		}
		data, err := rec.EncodeRef()
		if err != nil {
			return err
		}
		w.reports = append(w.reports, envelope{name: fmt.Sprintf("exp%d", exp), data: data,
			sig: corpus.Signature(rec), user: s.UserBytes})
		if len(w.unknown) < unknownStamps {
			forged := *rec
			forged.Fingerprint = fmt.Sprintf("%032x", 0xdead0000+exp)
			data, err := forged.EncodeRef()
			if err != nil {
				return err
			}
			w.unknown = append(w.unknown, envelope{name: fmt.Sprintf("unknown%d", exp), data: data})
		}
	}
	// One client and one kept-alive connection per round. A new
	// connection per POST left thousands of sockets in TIME_WAIT per run,
	// into the runs after it.
	w.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1},
	}
	// Warm-up round.
	st, err := w.round(ctx, b, false)
	if err != nil {
		return fmt.Errorf("warm-up round: %w", err)
	}
	if st.generations < 2 {
		return fmt.Errorf("warm-up round: the balance published no new generation")
	}
	return nil
}

// mix is one round's POST order: every report copiesPerReport times plus
// the unknown stamps, shuffled by the seed.
func (w *reportLoop) mix(b *bench) []envelope {
	var m []envelope
	for _, r := range w.reports {
		for i := 0; i < copiesPerReport; i++ {
			m = append(m, r)
		}
	}
	m = append(m, w.unknown...)
	b.rng.Shuffle(len(m), func(i, j int) { m[i], m[j] = m[j], m[i] })
	return m
}

// round runs one fleet round trip from a fresh state and checks every
// step's output.
func (w *reportLoop) round(ctx context.Context, b *bench, traced bool) (*roundStats, error) {
	w.rounds++
	dir := filepath.Join(workDir, fmt.Sprintf("report-loop-%d-%d", os.Getpid(), w.rounds))
	defer os.RemoveAll(dir)
	storeDir, intakeDir := filepath.Join(dir, "store"), filepath.Join(dir, "intake")

	// A fresh developer site: the plan store holds generation 0 only, and
	// the balancing session's analysis is done before the round starts.
	st, err := store.Open(storeDir)
	if err != nil {
		return nil, err
	}
	if err := st.PutPlan(w.plan); err != nil {
		return nil, err
	}
	sess := pathlog.SessionOf(w.scn, append(sessionOptions(), pathlog.WithPlanStore(storeDir))...)
	if _, err := sess.Analyze(ctx); err != nil {
		return nil, err
	}
	srv, err := pathlog.NewIntake(pathlog.IntakeConfig{Dir: intakeDir, Store: st,
		Now: func() time.Time { return intakeEpoch }})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown(context.Background())
		<-served
		w.client.CloseIdleConnections()
	}()
	url := "http://" + ln.Addr().String()

	// The POSTs are timed from a collected heap, so the garbage of the
	// previous round's balance is not collected on their clock.
	runtime.GC()
	b.ref.burst()
	rctx, root := b.spans.start(ctx, traced, "op")
	rs := &roundStats{}
	mix := w.mix(b)
	seen := map[string]bool{}
	// Reference samples taken inside the round are subtracted from its
	// times.
	refBefore := b.ref.cpu
	first := cpuTime()
	for _, e := range mix {
		want := http.StatusForbidden
		if e.sig != "" {
			want = http.StatusCreated
			if seen[e.sig] {
				want = http.StatusOK
			}
			seen[e.sig] = true
		}
		_, sp := b.spans.start(rctx, traced, "intake.post")
		sw := startWatch()
		status, err := w.post(url+"/report", e.data)
		d, wd := sw.stop()
		rs.posts, rs.postWalls = append(rs.posts, d), append(rs.postWalls, wd)
		sp.end()
		b.check(err == nil && status == want, "POST %s: status %d (want %d), err %v", e.name, status, want, err)
		b.tickIn(root)
	}

	_, sp := b.spans.start(rctx, traced, "corpus.ingest")
	crp, info, err := pathlog.IngestIntake(intakeDir, w.progHash, pathlog.CorpusIngestOptions{})
	sp.end()
	if err != nil {
		return nil, err
	}
	rs.metrics = srv.Metrics()
	m := rs.metrics
	b.check(m.Stored == int64(len(w.reports)) && m.Deduped == int64(len(w.reports)*(copiesPerReport-1)) &&
		m.Refused == unknownStamps && m.Throttled == 0 && info.Stored == len(w.reports),
		"intake counters stored %d deduped %d refused %d throttled %d, bucket %d stored (want %d/%d/%d/0)",
		m.Stored, m.Deduped, m.Refused, m.Throttled, info.Stored,
		len(w.reports), len(w.reports)*(copiesPerReport-1), unknownStamps)
	for _, r := range w.reports {
		path := filepath.Join(intakeDir, "reports", w.progHash, w.plan.Fingerprint(), r.sig+".report")
		if err := crp.AttachInput(path, r.user); err != nil {
			return nil, err
		}
	}

	bctx, bal := b.spans.start(rctx, traced, "balance")
	tr, err := sess.CorpusBalance(bctx, crp, pathlog.BalanceOptions{
		TargetReplayRuns: balanceTarget,
		Shards:           1,
		OnPhase: func(p pathlog.PhaseTiming) {
			bal.child("balance."+p.Phase, p.Elapsed)
			// The balance runs for most of a round; sampling the machine's
			// speed between its phases keeps the samples spread over it.
			b.tickIn(bal)
		},
	})
	bal.end()
	if err != nil {
		return nil, fmt.Errorf("corpus balance: %w", err)
	}
	rs.generations = len(tr.Points)
	for _, pt := range tr.Points {
		for _, run := range pt.Outcome.Runs {
			rs.replayRuns += run.Runs
		}
	}

	_, sp = b.spans.start(rctx, traced, "store.chain_head")
	published, err := sess.PublishedPlan()
	sp.end()
	if err != nil {
		return nil, err
	}
	_, sp = b.spans.start(rctx, traced, "plan.get")
	servedPlan, err := w.getPlan(url + "/plan/" + w.progHash)
	sp.end()
	rs.toPlan = cpuTime() - first - (b.ref.cpu - refBefore)
	root.end()
	b.ref.burst()
	b.check(err == nil && servedPlan.Fingerprint() == published.Fingerprint() && published.Generation > 0,
		"GET /plan: %v, serves %s, published %s generation %d", err,
		fingerprintOf(servedPlan), published.Fingerprint(), published.Generation)
	return rs, nil
}

func (w *reportLoop) post(url string, data []byte) (int, error) {
	resp, err := w.client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

func (w *reportLoop) getPlan(url string) (*pathlog.Plan, error) {
	resp, err := w.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return instrument.DecodePlan(data)
}

func fingerprintOf(p *pathlog.Plan) string {
	if p == nil {
		return "nothing"
	}
	return p.Fingerprint()
}

func (w *reportLoop) measure(ctx context.Context, b *bench) error {
	pinned := map[string]string{}
	var posts, postWalls []time.Duration
	var toPlan, tracedToPlan, untracedToPlan []time.Duration
	var last *roundStats
	t0, c0 := time.Now(), cpuTime()
	for i := 0; time.Since(t0) < b.window; i++ {
		traced := b.traceThis(i)
		rs, err := w.round(ctx, b, traced)
		if err != nil {
			return err
		}
		posts = append(posts, rs.posts...)
		postWalls = append(postWalls, rs.postWalls...)
		toPlan = append(toPlan, rs.toPlan)
		if traced {
			tracedToPlan = append(tracedToPlan, rs.toPlan)
		} else {
			untracedToPlan = append(untracedToPlan, rs.toPlan)
		}
		m := rs.metrics
		b.pin("round", pinned, fmt.Sprintf("stored %d deduped %d refused %d throttled %d journal %d bytes, %d generations, %d replay runs",
			m.Stored, m.Deduped, m.Refused, m.Throttled, m.JournalBytes, rs.generations, rs.replayRuns))
		last = rs
	}
	busy := cpuTime() - c0 - b.ref.cpu

	b.latencies(posts, postWalls)
	// Reports carried through to the served plan per second: the balance
	// a round ends with counts, so a slower balance shows here.
	b.e2e["ops_per_s"] = b.perSecond(len(posts), busy)
	b.e2e["report_to_plan_s_p50"] = metric{median(secondsOf(toPlan)) * b.ref.scale(), "s"}

	m := last.metrics
	b.layer["intake.stored"] = metric{float64(m.Stored), "count"}
	b.layer["intake.deduped"] = metric{float64(m.Deduped), "count"}
	b.layer["intake.refused"] = metric{float64(m.Refused), "count"}
	b.layer["intake.throttled"] = metric{float64(m.Throttled), "count"}
	b.layer["intake.journal_bytes"] = metric{float64(m.JournalBytes), "bytes"}
	b.layer["balance.generations"] = metric{float64(last.generations), "count"}
	b.layer["balance.replay_runs"] = metric{float64(last.replayRuns), "count"}
	if b.traced {
		self := b.spans.selfTimes()
		b.layer["intake.post_ms"] = b.ms(self["intake.post"].perOpMS())
		b.layer["corpus.ingest_ms"] = b.ms(self["corpus.ingest"].perOpMS())
		rounds := float64(len(tracedToPlan))
		for _, ph := range []string{"record", "replay", "refine", "merge"} {
			b.layer["balance."+ph+"_ms"] = b.ms(float64(self["balance."+ph].ns) / 1e6 / rounds)
		}
		b.layer["balance.other_ms"] = b.ms(self["balance"].perOpMS())
		b.layer["store.chain_head_ms"] = b.ms(self["store.chain_head"].perOpMS())
		b.layer["plan.get_ms"] = b.ms(self["plan.get"].perOpMS())
		setupLayers(b, self)
		b.overhead(tracedToPlan, untracedToPlan)
	}
	return nil
}
