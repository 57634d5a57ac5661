package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"pathlog/internal/obs"
)

// spanLog records spans around the benchmark's calls into each layer. It
// keeps them in memory and writes them as obs.SpanRecord JSONL at exit, so
// recording costs an append and no I/O inside the measured window. IDs are
// sequential: one op is one trace.
type spanLog struct {
	recs   []obs.SpanRecord
	nextID int
}

type spanKey struct{}

// span is one open span; a nil *span is a no-op, which is what untraced
// code paths get.
type span struct {
	log   *spanLog
	rec   obs.SpanRecord
	start time.Time
}

func (l *spanLog) id() string {
	l.nextID++
	return fmt.Sprintf("%016x", l.nextID)
}

// start opens a span named name under the span in ctx, or as a new trace
// root. With on false it returns ctx and a nil span.
func (l *spanLog) start(ctx context.Context, on bool, name string) (context.Context, *span) {
	if !on {
		return ctx, nil
	}
	s := &span{log: l, start: time.Now()}
	s.rec.Name = name
	s.rec.Span = l.id()
	if p, ok := ctx.Value(spanKey{}).(*span); ok {
		s.rec.Trace = p.rec.Trace
		s.rec.Parent = p.rec.Span
	} else {
		s.rec.Trace = l.id()
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// end closes the span.
func (s *span) end() {
	if s == nil {
		return
	}
	s.rec.StartUnixNS = s.start.UnixNano()
	s.rec.DurNS = time.Since(s.start).Nanoseconds()
	s.rec.Proc = "perfbench"
	s.log.recs = append(s.log.recs, s.rec)
}

// child records an already-finished child of s that ended now after
// running for d — for phases a callback reports only once they are done.
func (s *span) child(name string, d time.Duration) {
	if s == nil {
		return
	}
	now := time.Now()
	s.log.recs = append(s.log.recs, obs.SpanRecord{
		Trace: s.rec.Trace, Span: s.log.id(), Parent: s.rec.Span, Name: name,
		Proc: "perfbench", StartUnixNS: now.Add(-d).UnixNano(), DurNS: d.Nanoseconds(),
	})
}

// selfTimes returns, per span name, the summed self time — a span's
// duration minus the part of it its children cover — and the span count.
func (l *spanLog) selfTimes() map[string]selfTime {
	type iv struct{ lo, hi int64 }
	kids := map[string][]iv{}
	for _, r := range l.recs {
		if r.Parent != "" {
			kids[r.Parent] = append(kids[r.Parent], iv{r.StartUnixNS, r.StartUnixNS + r.DurNS})
		}
	}
	out := map[string]selfTime{}
	for _, r := range l.recs {
		lo, hi := r.StartUnixNS, r.StartUnixNS+r.DurNS
		cs := kids[r.Span]
		sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
		covered, cur := int64(0), lo
		for _, c := range cs {
			a, z := max(c.lo, cur), min(c.hi, hi)
			if z > a {
				covered += z - a
				cur = z
			}
		}
		st := out[r.Name]
		st.ns += r.DurNS - covered
		st.n++
		out[r.Name] = st
	}
	return out
}

type selfTime struct {
	ns int64
	n  int
}

// perOpMS is the mean self time per span in ms.
func (t selfTime) perOpMS() float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.ns) / float64(t.n) / 1e6
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	jl := obs.NewJSONL(w)
	for _, r := range l.recs {
		if err := jl.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
