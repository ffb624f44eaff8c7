package obs

import (
	"context"
	"sync"
	"time"
)

// Attr is one span attribute. Values are strings on purpose: the store
// and the OTLP export render them verbatim, and the callers that need
// numbers format them once at the call site.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanEvent is one timestamped point annotation inside a span.
type SpanEvent struct {
	Time  time.Time `json:"time"`
	Name  string    `json:"name"`
	Value int64     `json:"value,omitempty"`
}

// Search phase names. A search's compile/candidates/explore child spans
// and its flight-recorder phases carry them, both listed by Phases.
const (
	// PhaseCompile covers query keyword compilation.
	PhaseCompile = "compile"
	// PhaseCandidates covers the initial candidate-set (S_R) build.
	PhaseCandidates = "candidates"
	// PhaseExplore covers the branch-and-bound exploration.
	PhaseExplore = "explore"
)

// Phases lists a search's phases in order from its recorded phase
// times. A phase the algorithm does not run (greedy and brute force
// build no candidate set) took no time and is left out.
func Phases(compile, candidates, explore time.Duration) []SpanRecord {
	var out []SpanRecord
	for _, p := range []SpanRecord{
		{Phase: PhaseCompile, Duration: compile},
		{Phase: PhaseCandidates, Duration: candidates},
		{Phase: PhaseExplore, Duration: explore},
	} {
		if p.Duration > 0 {
			out = append(out, p)
		}
	}
	return out
}

// Span status codes. The zero value (unset) renders as "ok".
const (
	StatusOK    = "ok"
	StatusError = "error"
)

// maxSpanEvents bounds per-span event retention so a hot loop that
// emits one event per explored node cannot balloon a stored trace;
// overflow is counted in SpanData.EventsDropped instead.
const maxSpanEvents = 64

// SpanData is one completed span as stored and exported: the JSON
// shape of /debug/traces/{id}.
type SpanData struct {
	TraceID       string        `json:"trace_id"`
	SpanID        string        `json:"span_id"`
	ParentID      string        `json:"parent_id,omitempty"`
	Name          string        `json:"name"`
	Start         time.Time     `json:"start"`
	Duration      time.Duration `json:"duration_ns"`
	Attrs         []Attr        `json:"attrs,omitempty"`
	Events        []SpanEvent   `json:"events,omitempty"`
	EventsDropped int64         `json:"events_dropped,omitempty"`
	Status        string        `json:"status,omitempty"`
	StatusMsg     string        `json:"status_msg,omitempty"`
	// RemoteParent marks a span whose parent lives in another process
	// (it arrived via a traceparent header) — a local root.
	RemoteParent bool `json:"remote_parent,omitempty"`
}

// Span is one in-progress operation of a trace. Create spans with
// StartSpan/StartChild, annotate them with SetAttr/Event/SetError, and
// End them exactly once. All methods are safe for concurrent use and
// safe on a nil receiver, so instrumentation can be written without
// "is tracing on?" branches.
type Span struct {
	sc     SpanContext
	parent SpanID
	remote bool
	name   string
	start  time.Time
	buf    *traceBuf

	mu            sync.Mutex
	attrs         []Attr
	events        []SpanEvent
	eventsDropped int64
	status        string
	statusMsg     string
	ended         bool
}

// traceBuf accumulates the completed spans of one local trace fragment:
// every span started under the same local root shares the buffer, and
// the root's End flushes it to the owning store. Spans that end after
// the flush (rare: a goroutine outliving its request) are offered to
// the store as their own single-span fragment — the store merges by
// trace ID.
type traceBuf struct {
	store *TraceStore
	root  SpanID

	mu      sync.Mutex
	spans   []SpanData
	flushed bool
}

func (b *traceBuf) add(sd SpanData, isRoot bool) {
	if b == nil || b.store == nil {
		return
	}
	b.mu.Lock()
	if b.flushed {
		b.mu.Unlock()
		b.store.Offer([]SpanData{sd})
		return
	}
	b.spans = append(b.spans, sd)
	done := isRoot
	var out []SpanData
	if done {
		b.flushed = true
		out = b.spans
		b.spans = nil
	}
	b.mu.Unlock()
	if done {
		b.store.Offer(out)
	}
}

// ctx keys for the active span and for a store override.
type (
	spanCtxKey       struct{}
	remoteCtxKey     struct{}
	traceStoreCtxKey struct{}
)

// SpanFromContext returns the active span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// ContextWithRemote attaches a remote span context (extracted from a
// traceparent header) to ctx; the next StartSpan becomes a local root
// of that trace, parented to the remote span.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if !sc.Valid() {
		return ctx
	}
	sc.Remote = true
	return context.WithValue(ctx, remoteCtxKey{}, sc)
}

// ContextWithTraceStore routes spans started under ctx (and their
// children) to st instead of the process default. Embedded servers and
// tests use it to keep traces out of the global store.
func ContextWithTraceStore(ctx context.Context, st *TraceStore) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, traceStoreCtxKey{}, st)
}

// storeFor resolves the trace store for a new local root.
func storeFor(ctx context.Context) *TraceStore {
	if ctx != nil {
		if st, ok := ctx.Value(traceStoreCtxKey{}).(*TraceStore); ok {
			return st
		}
	}
	return DefaultTraceStore()
}

// StartSpan starts a span named name and returns a context carrying it.
// With an active local span in ctx the new span is its child (same
// trace, same fragment). With a remote span context (ContextWithRemote)
// it becomes a local root of that remote trace. Otherwise it starts a
// brand-new trace. The caller must End the span exactly once.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	now := time.Now()
	if parent := SpanFromContext(ctx); parent != nil {
		sp := &Span{
			sc:     SpanContext{TraceID: parent.sc.TraceID, SpanID: NewSpanID(), Sampled: parent.sc.Sampled},
			parent: parent.sc.SpanID,
			name:   name,
			start:  now,
			buf:    parent.buf,
		}
		return context.WithValue(ctx, spanCtxKey{}, sp), sp
	}
	sp := &Span{
		sc:    SpanContext{SpanID: NewSpanID(), Sampled: true},
		name:  name,
		start: now,
	}
	if rc, ok := ctx.Value(remoteCtxKey{}).(SpanContext); ok && rc.Valid() {
		sp.sc.TraceID = rc.TraceID
		sp.sc.Sampled = rc.Sampled
		sp.parent = rc.SpanID
		sp.remote = true
	} else {
		sp.sc.TraceID = NewTraceID()
	}
	sp.buf = &traceBuf{store: storeFor(ctx), root: sp.sc.SpanID}
	return context.WithValue(ctx, spanCtxKey{}, sp), sp
}

// StartChild starts a child span only when ctx already carries an
// active span; otherwise it returns ctx unchanged and a nil span (whose
// methods are all no-ops). This is the hook for library code — the
// search core — that should never originate traces on its own.
func StartChild(ctx context.Context, name string) (context.Context, *Span) {
	if SpanFromContext(ctx) == nil {
		return ctx, nil
	}
	return StartSpan(ctx, name)
}

// Context returns the span's propagatable identity (for traceparent
// injection). A nil span returns the zero (invalid) context.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// TraceID returns the span's trace ID ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.sc.TraceID.String()
}

// SetAttr attaches a key/value attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{key, value})
	s.mu.Unlock()
}

// Event records a timestamped point annotation. Events beyond the
// per-span cap are dropped and counted.
func (s *Span) Event(name string, value int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if len(s.events) >= maxSpanEvents {
		s.eventsDropped++
	} else {
		s.events = append(s.events, SpanEvent{Time: time.Now(), Name: name, Value: value})
	}
	s.mu.Unlock()
}

// SetError marks the span failed. Traces containing an errored span are
// always retained by the tail sampler.
func (s *Span) SetError(msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.status, s.statusMsg = StatusError, msg
	s.mu.Unlock()
}

// SetStatus sets an explicit status code ("ok"/"error") and message.
func (s *Span) SetStatus(code, msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.status, s.statusMsg = code, msg
	s.mu.Unlock()
}

// End completes the span at time.Now(). The first call wins; later
// calls are no-ops. When the span is its fragment's local root, ending
// it flushes every span of the fragment to the trace store, where the
// tail-sampling decision is made.
func (s *Span) End() {
	s.EndAt(time.Now())
}

// EndAt completes the span at the given instant (End with an explicit
// clock, used by tests and by synthesized spans).
func (s *Span) EndAt(now time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	sd := SpanData{
		TraceID:       s.sc.TraceID.String(),
		SpanID:        s.sc.SpanID.String(),
		Name:          s.name,
		Start:         s.start,
		Duration:      now.Sub(s.start),
		Attrs:         s.attrs,
		Events:        s.events,
		EventsDropped: s.eventsDropped,
		Status:        s.status,
		StatusMsg:     s.statusMsg,
		RemoteParent:  s.remote,
	}
	s.mu.Unlock()
	if !s.parent.IsZero() {
		sd.ParentID = s.parent.String()
	}
	mSpans.Inc()
	s.buf.add(sd, s.buf != nil && s.buf.root == s.sc.SpanID)
}

// AddCompletedChild attaches an already-finished child span (e.g. a
// queue wait measured as a plain duration) under s. It is a
// convenience for instrumenting code that measures first and reports
// after the fact.
func (s *Span) AddCompletedChild(name string, start time.Time, d time.Duration, attrs ...Attr) {
	if s == nil {
		return
	}
	sd := SpanData{
		TraceID:  s.sc.TraceID.String(),
		SpanID:   NewSpanID().String(),
		ParentID: s.sc.SpanID.String(),
		Name:     name,
		Start:    start,
		Duration: d,
		Attrs:    attrs,
	}
	mSpans.Inc()
	s.buf.add(sd, false)
}
