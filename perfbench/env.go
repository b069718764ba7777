package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mergepath/internal/server"
	"mergepath/internal/wire"
)

// env is one in-process mergepathd: server.New behind a real loopback
// listener, wrapped so the traced run can time ServeHTTP.
type env struct {
	srv    *server.Server
	hs     *http.Server
	wrap   *serveWrap
	base   string
	served chan error
}

// serveWrap is the benchmark-side span around the server's ServeHTTP.
// It records (start, end) per X-Request-Id only while on is set.
type serveWrap struct {
	h     http.Handler
	on    atomic.Bool
	mu    sync.Mutex
	spans map[string][2]time.Time
}

func (w *serveWrap) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if !w.on.Load() {
		w.h.ServeHTTP(rw, r)
		return
	}
	start := time.Now()
	w.h.ServeHTTP(rw, r)
	end := time.Now()
	if id := r.Header.Get("X-Request-Id"); id != "" {
		w.mu.Lock()
		w.spans[id] = [2]time.Time{start, end}
		w.mu.Unlock()
	}
}

// collect returns the ServeHTTP spans of the given request IDs. A client
// can read the last response byte before the handler returns, so it
// waits briefly for stragglers.
func (w *serveWrap) collect(ids []string) map[string][2]time.Time {
	deadline := time.Now().Add(2 * time.Second)
	for {
		w.mu.Lock()
		missing := 0
		for _, id := range ids {
			if _, ok := w.spans[id]; !ok {
				missing++
			}
		}
		if missing == 0 || time.Now().After(deadline) {
			out := make(map[string][2]time.Time, len(w.spans))
			for k, v := range w.spans {
				out[k] = v
			}
			w.spans = make(map[string][2]time.Time)
			w.mu.Unlock()
			return out
		}
		w.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
}

// newClient returns a client holding at most one connection, so the
// number of clients a workload creates is its connection count.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// setupTime is one server start, from server.New to the first /healthz
// 200: its wall-clock time and the process CPU time spent in it.
type setupTime struct{ wall, cpu time.Duration }

// startEnv starts a server and returns it with its set-up time.
func startEnv(cfg server.Config) (e *env, setup setupTime, err error) {
	t0, c0 := time.Now(), cpuTime()
	defer func() {
		// server.New panics when the spill directory cannot be set up.
		if r := recover(); r != nil {
			err = fmt.Errorf("server.New: %v", r)
		}
	}()
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background())
		return nil, setup, err
	}
	e = &env{
		srv:    srv,
		wrap:   &serveWrap{h: srv, spans: make(map[string][2]time.Time)},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	e.hs = &http.Server{Handler: e.wrap}
	go func() { e.served <- e.hs.Serve(ln) }()
	cl := newClient()
	defer cl.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, gerr := cl.Get(e.base + "/healthz")
		if gerr == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return e, setupTime{time.Since(t0), cpuTime() - c0}, nil
			}
			gerr = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			_ = e.stop()
			return nil, setup, fmt.Errorf("healthz never answered 200: %w", gerr)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// stop shuts the listener down, waits for Serve to return and drains
// the server (pool and jobs manager).
func (e *env) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := e.srv.Drain(ctx); err == nil {
		err = derr
	}
	return err
}

// setupServer starts a server warm+reps times, each on a fresh spill
// directory under runDir, and keeps the last one running. It returns
// the set-up times of the last reps starts; the first warm ones pay the
// process's first-use costs (first listener, page faults), which vary
// most from run to run. The garbage the workload's set-up left behind is
// collected first, so no collection runs during the starts.
func setupServer(config func(dir string) server.Config, runDir string, warm, reps int) (*env, []setupTime, error) {
	runtime.GC()
	var times []setupTime
	for i := 0; ; i++ {
		dir, err := os.MkdirTemp(runDir, "spill-")
		if err != nil {
			return nil, nil, err
		}
		e, d, err := startEnv(config(dir))
		if err != nil {
			return nil, nil, err
		}
		if i >= warm {
			times = append(times, d)
		}
		if i == warm+reps-1 {
			return e, times, nil
		}
		if err := e.stop(); err != nil {
			return nil, nil, fmt.Errorf("stop set-up server: %w", err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}
}

// request is one pre-built operation: its body, and the exact response
// body a correct server returns.
type request struct {
	kind  string // merge, sort, mergek, select or setops
	path  string
	body  []byte
	frame bool   // binary frame in both directions, else JSON
	want  []byte // the whole expected response body
	elems int    // output elements of a correct response
}

// op is one finished operation as the client saw it.
type op struct {
	kind     string
	due      time.Time // when it was due (open loop) or issued (closed loop)
	sent     time.Time
	end      time.Time
	elems    int
	ok       bool // 200 with every byte as expected
	mismatch bool // 200 with wrong bytes
	// Traced runs only.
	req       string
	timing    string
	wrote     time.Time // request fully written
	firstByte time.Time // first response byte read
	job       *jobRun
}

func (o op) latency() time.Duration { return o.end.Sub(o.due) }

// clientTimes receives httptrace callbacks, which may run on the
// transport's goroutines.
type clientTimes struct {
	mu               sync.Mutex
	wrote, firstByte time.Time
}

// do sends one request and verifies the response byte for byte. A zero
// due means the request is due when sent (closed loop). buf is the
// caller's reusable response buffer; reqID is set only when traced.
func do(cl *http.Client, base string, rq *request, due time.Time, reqID string, buf *bytes.Buffer) op {
	o := op{kind: rq.kind, due: due, elems: rq.elems, req: reqID}
	hreq, err := http.NewRequest(http.MethodPost, base+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		o.sent = time.Now()
		o.end = o.sent
		if o.due.IsZero() {
			o.due = o.sent
		}
		return o
	}
	if rq.frame {
		hreq.Header.Set("Content-Type", wire.ContentType)
		hreq.Header.Set("Accept", wire.ContentType)
	} else {
		hreq.Header.Set("Content-Type", "application/json")
	}
	var ct *clientTimes
	if reqID != "" {
		ct = &clientTimes{}
		hreq.Header.Set("X-Request-Id", reqID)
		hreq = hreq.WithContext(httptrace.WithClientTrace(hreq.Context(), &httptrace.ClientTrace{
			WroteRequest: func(httptrace.WroteRequestInfo) {
				ct.mu.Lock()
				ct.wrote = time.Now()
				ct.mu.Unlock()
			},
			GotFirstResponseByte: func() {
				ct.mu.Lock()
				ct.firstByte = time.Now()
				ct.mu.Unlock()
			},
		}))
	}
	o.sent = time.Now()
	if o.due.IsZero() {
		o.due = o.sent
	}
	resp, err := cl.Do(hreq)
	if err != nil {
		o.end = time.Now()
		return o
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	o.end = time.Now()
	if resp.StatusCode == http.StatusOK && err == nil {
		o.ok = bytes.Equal(buf.Bytes(), rq.want)
		o.mismatch = !o.ok
	}
	if ct != nil {
		o.timing = resp.Header.Get("Server-Timing")
		ct.mu.Lock()
		o.wrote, o.firstByte = ct.wrote, ct.firstByte
		ct.mu.Unlock()
	}
	return o
}

// phase is one measured stretch of a run, with the server and runtime
// state on both sides of it.
type phase struct {
	ops          []op
	start, end   time.Time
	snap0, snap1 server.MetricsSnapshot
	mem0, mem1   runtime.MemStats
	cpu          time.Duration // process CPU time (user + system) of the phase
	heapPeak     float64       // typical peak HeapInuse over the start value, bytes (see heapPeak)
}

// measure runs drive as one phase. It collects garbage first so the
// heap baseline does not depend on what set-up left behind.
func measure(e *env, drive func() []op) *phase {
	runtime.GC()
	p := &phase{snap0: e.srv.Snapshot()}
	runtime.ReadMemStats(&p.mem0)
	stop := make(chan struct{})
	heap := make(chan []heapSample)
	go sampleHeap(stop, heap)
	c0 := cpuTime()
	p.start = time.Now()
	p.ops = drive()
	p.end = time.Now()
	p.cpu = cpuTime() - c0
	close(stop)
	p.heapPeak = heapPeak(<-heap, p.ops)
	runtime.ReadMemStats(&p.mem1)
	p.snap1 = e.srv.Snapshot()
	return p
}

// cpuTime is the CPU time (user + system) the process has used so far,
// server and client together. The kernel leaves out the time the
// hypervisor ran other guests on this guest's CPUs (steal), which
// wall-clock figures on a shared host include.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSample is one reading of HeapInuse.
type heapSample struct {
	at time.Time
	v  float64
}

// sampleHeap reads HeapInuse every 5ms until stop closes, then sends
// the readings on out.
func sampleHeap(stop <-chan struct{}, out chan<- []heapSample) {
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	var got []heapSample
	read := func() {
		metrics.Read(samples)
		got = append(got, heapSample{time.Now(), float64(samples[0].Value.Uint64() + samples[1].Value.Uint64())})
	}
	read()
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			read()
			out <- got
			return
		case <-t.C:
			read()
		}
	}
}

// heapPeak is the typical peak of HeapInuse over its first reading: the
// median, over windows of whole operations (opWindows), of each window's
// highest reading. The single highest reading depends on which buffers
// happen to be live when a collection starts; the median of the window
// peaks does not. Windows of whole operations rather than of clock
// seconds keep a job's peak from falling between windows, which would
// make the figure depend on how long a job takes.
func heapPeak(samples []heapSample, ops []op) float64 {
	if len(samples) == 0 {
		return 0
	}
	base := samples[0].v
	var peaks []float64
	for _, w := range opWindows(ops, time.Second) {
		p := base
		for _, s := range samples {
			if !s.at.Before(w[0]) && s.at.Before(w[1]) {
				p = max(p, s.v)
			}
		}
		peaks = append(peaks, p)
	}
	return median(peaks) - base
}

// opWindows cuts the span of ops into consecutive windows [from, to)
// that each start at an operation's send and run to the send of the
// first operation at least minLen later, so a closed loop's window holds
// whole operations. The last window ends at the last operation's end;
// it is dropped when shorter than minLen, unless it is the only one.
func opWindows(ops []op, minLen time.Duration) [][2]time.Time {
	if len(ops) == 0 {
		return nil
	}
	sent := make([]time.Time, len(ops))
	end := ops[0].end
	for i, o := range ops {
		sent[i] = o.sent
		if o.end.After(end) {
			end = o.end
		}
	}
	slices.SortFunc(sent, time.Time.Compare)
	var ws [][2]time.Time
	from := sent[0]
	for _, t := range sent[1:] {
		if t.Sub(from) >= minLen {
			ws = append(ws, [2]time.Time{from, t})
			from = t
		}
	}
	if end.Sub(from) >= minLen || len(ws) == 0 {
		ws = append(ws, [2]time.Time{from, end})
	}
	return ws
}
