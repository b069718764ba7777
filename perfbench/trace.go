package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one request or
// job share Req; Parent is the ID of the span that caused this one (0
// for a root).
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Name   string    `json:"name"`
	Req    string    `json:"req"`
	Start  time.Time `json:"-"`
	End    time.Time `json:"-"`
	// StartUS and EndUS are the offsets from the trace origin, filled in
	// when the spans are written out.
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps the traced run's spans in memory until write.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span and returns its ID.
func (t *tracer) add(parent int, name, req string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end})
	return id
}

// all returns a copy of the recorded spans, in ID order.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// write stores the spans as JSON lines, offsets in microseconds from
// the trace origin, after one header line describing the run.
func (t *tracer) write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.all() {
		s.StartUS = float64(s.Start.Sub(t.origin)) / 1e3
		s.EndUS = float64(s.End.Sub(t.origin)) / 1e3
		if err := enc.Encode(s); err != nil {
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

// selfTimes returns each span's self time, keyed by ID: its duration
// minus the part of its interval that its children cover. Overlapping
// children are counted once, and children reaching outside the parent
// are clipped to it.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		slices.SortFunc(cs, func(a, b span) int { return a.Start.Compare(b.Start) })
		var covered time.Duration
		var curEnd time.Time
		for _, c := range cs {
			lo, hi := maxTime(c.Start, s.Start), minTime(c.End, s.End)
			lo = maxTime(lo, curEnd)
			if hi.After(lo) {
				covered += hi.Sub(lo)
				curEnd = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// stage is one entry of a Server-Timing header.
type stage struct {
	name string
	dur  time.Duration
}

// parseServerTiming reads a Server-Timing header value ("decode;dur=0.123,
// execute;dur=4.5"). Entries without a parseable dur parameter are
// skipped; durations are milliseconds per the header's convention.
func parseServerTiming(h string) []stage {
	var out []stage
	for _, entry := range strings.Split(h, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ";")
		name := strings.TrimSpace(parts[0])
		if name == "" {
			continue
		}
		for _, p := range parts[1:] {
			k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok || strings.TrimSpace(k) != "dur" {
				continue
			}
			f, err := strconv.ParseFloat(strings.Trim(strings.TrimSpace(v), `"`), 64)
			if err != nil || f < 0 {
				continue
			}
			out = append(out, stage{name: name, dur: time.Duration(f * float64(time.Millisecond))})
			break
		}
	}
	return out
}
