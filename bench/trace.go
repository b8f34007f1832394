package main

import "time"

// span is one timed call from the harness into a layer. Times are nanoseconds
// since the tracer's epoch; parent is the index of the span that was open on
// the same goroutine when this one began, -1 at the top.
type span struct {
	name       uint16
	parent     int32
	start, end int64
}

// tracer records spans in memory for one run and is written out when the run
// ends. A nil *tracer is the tracing-off state: every method is a no-op, so
// the untraced pipeline pays one nil check per call site and the end-to-end
// numbers are taken with no recording at all. A tracer belongs to one
// goroutine; fork hands a second goroutine its own.
type tracer struct {
	epoch time.Time
	names []string
	index map[string]uint16
	spans []span
	open  int32 // innermost open span, -1 when none
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), index: map[string]uint16{}, open: -1}
}

// nameID interns a span name.
func (t *tracer) nameID(name string) uint16 {
	id, ok := t.index[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.index[name] = id
	}
	return id
}

func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: t.nameID(name), parent: t.open, start: int64(time.Since(t.epoch))})
	t.open = int32(len(t.spans) - 1)
	return t.open
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.epoch))
	t.open = t.spans[id].parent
}

// fork returns a tracer for a second goroutine sharing this one's epoch.
// Its spans are folded back in by join once that goroutine has exited.
func (t *tracer) fork() *tracer {
	if t == nil {
		return nil
	}
	return &tracer{epoch: t.epoch, index: map[string]uint16{}, open: -1}
}

// join appends a forked tracer's spans, parenting its top-level spans under
// the span open here — the one that caused the second goroutine to exist.
func (t *tracer) join(c *tracer) {
	if t == nil {
		return
	}
	base := int32(len(t.spans))
	for _, s := range c.spans {
		s.name = t.nameID(c.names[s.name])
		if s.parent < 0 {
			s.parent = t.open
		} else {
			s.parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// durations returns the lengths of every span with the given name, in the
// order they were recorded.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	id, ok := t.index[name]
	if !ok {
		return nil
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == id {
			out = append(out, time.Duration(s.end-s.start))
		}
	}
	return out
}

// childSeconds sums the durations of the spans directly under parent, leaving
// out those named skip.
func (t *tracer) childSeconds(parent int32, skip string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.parent == parent && t.names[s.name] != skip {
			ns += s.end - s.start
		}
	}
	return float64(ns) / 1e9
}

// spanSeconds is the length of one span.
func (t *tracer) spanSeconds(id int32) float64 {
	return float64(t.spans[id].end-t.spans[id].start) / 1e9
}

// selfTimes returns, per span name, total duration minus the part covered by
// child spans: the time the layer itself was busy.
func (t *tracer) selfTimes() map[string]time.Duration {
	if t == nil {
		return nil
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[t.names[s.name]] += time.Duration(s.end - s.start - child[i])
	}
	return out
}

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

func seconds(ds []time.Duration) float64 {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s.Seconds()
}
