// Command perfbench is the repository benchmark. One seeded run starts
// mergepathd in process (server.New behind a loopback listener), drives
// one workload against it with every response checked byte for byte,
// and prints its metrics. An untraced run (-trace 0) prints the
// end-to-end metrics; a traced run (-trace 1) prints the per-layer
// metrics and writes the span file. See README.md for the workloads and
// what each metric should move.
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload online-json --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"mergepath/internal/server"
	"mergepath/internal/stats"
)

const (
	workloadOnline = "online-json"
	workloadBulk   = "bulk-binary" // one workload per kind: bulk-binary-merge, -sort, -mergek
	workloadJobs   = "jobs-outofcore"
)

// A run starts the server setupWarm times untimed, then setupRepeats
// times timed before the measured phase and as many again after it;
// setup_s is the median of the timed starts. Starting on both sides of
// the phase samples the host twice, a phase apart, so a passing burst of
// contention from outside moves the median less.
const (
	setupWarm    = 5
	setupRepeats = 50
)

// workload is one traffic mix with its inputs built from the seed.
type workload struct {
	name   string
	config func(dir string) server.Config
	// drive runs the workload: n > 0 operations, or for d when n == 0.
	drive     func(e *env, d time.Duration, n int, traced bool) []op
	warmOps   int
	tracedOps int           // fixed, so the traced run's counts repeat
	slo       time.Duration // latency limit of slo_met_ratio
	layers    layerInputs
	budget    int // jobs memory budget in records, 0 when jobs are unused
	params    map[string]any
}

// workloadNames lists the workloads -workload accepts.
var workloadNames = []string{workloadOnline,
	workloadBulk + "-merge", workloadBulk + "-sort", workloadBulk + "-mergek", workloadJobs}

func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case workloadOnline:
		return newOnline(onlineDefaults, seed), nil
	case workloadBulk + "-merge":
		return newBulk("merge", bulkDefaults, seed), nil
	case workloadBulk + "-sort":
		return newBulk("sort", bulkDefaults, seed), nil
	case workloadBulk + "-mergek":
		return newBulk("mergek", bulkDefaults, seed), nil
	case workloadJobs:
		return newJobs(jobsDefaults, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// info holds the ungated figures of an untraced run, printed as
	// comments before the result line.
	info map[string]metric
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: one of "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_out", "directory for span files and spill data")
	flag.Parse()
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	res, stamp, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	sj, _ := json.Marshal(stamp)
	fmt.Printf("# stamp %s\n", sj)
	for _, d := range append(endToEnd, perLayer...) {
		if m, ok := res.Metrics[d.name]; ok {
			fmt.Printf("# %-32s %16.6g %s\n", d.name, m.Value, m.Unit)
		} else if m, ok := res.info[d.name]; ok {
			fmt.Printf("# %-32s %16.6g %s (not gated)\n", d.name, m.Value, m.Unit)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one benchmark run and returns its result and the
// environment stamp that goes with it.
func run(o options) (result, map[string]any, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return result{}, nil, err
	}
	runDir := filepath.Join(o.out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(runDir)
	e, setups, err := setupServer(w.config, runDir, setupWarm, setupRepeats)
	if err != nil {
		return result{}, nil, err
	}
	defer func() {
		if e == nil {
			return
		}
		if err := e.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: stopping the server:", err)
		}
	}()
	stamp := map[string]any{
		"workload": w.name, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": commit(), "date": time.Now().UTC().Format(time.RFC3339),
		"server_workers": e.srv.Workers(), "params": w.params,
		"flush_policy": "server defaults: coalescing batch window, jobs fsync=state",
	}
	w.drive(e, 0, w.warmOps, false)

	dur := time.Duration(o.seconds) * time.Second
	if !o.trace {
		ph := measure(e, func() []op { return w.drive(e, dur, 0, false) })
		err := e.stop()
		e = nil
		if err != nil {
			return result{}, nil, fmt.Errorf("stop the server: %w", err)
		}
		last, later, err := setupServer(w.config, runDir, 0, setupRepeats)
		if err != nil {
			return result{}, nil, err
		}
		if err := last.stop(); err != nil {
			return result{}, nil, fmt.Errorf("stop the server: %w", err)
		}
		setups = append(setups, later...)
		res := newResult(w, ph)
		fig := phaseFigures(w, ph, setups)
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{fig[d.name], d.unit}
		}
		res.info = make(map[string]metric)
		for _, d := range perLayer {
			if v, ok := fig[d.name]; ok {
				res.info[d.name] = metric{v, d.unit}
			}
		}
		return res, stamp, nil
	}

	// Traced run: an untraced half for the client-side figures and the
	// overhead base, then a fixed number of traced operations, then the
	// layer replays.
	base := measure(e, func() []op { return w.drive(e, dur/2, 0, false) })
	tr := newTracer()
	traced := tracedPass(e, w, tr)
	m := layerMetrics(w, base, traced, tr.all())
	for k, v := range phaseFigures(w, base, setups) {
		if !isEndToEnd(k) {
			m[k] = v
		}
	}
	replayOK := replay(w.layers, e.srv.Workers(), tr, m)
	spanFile := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
	stamp["span_file"] = spanFile
	if err := tr.write(spanFile, stamp); err != nil {
		return result{}, nil, fmt.Errorf("write spans: %w", err)
	}

	res := newResult(w, base, traced)
	res.Correct = res.Correct && replayOK
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{m[d.name], d.unit}
	}
	return res, stamp, nil
}

// tracedPass runs the workload's fixed traced operations with the
// ServeHTTP wrapper on and records every request's and job's spans.
func tracedPass(e *env, w *workload, tr *tracer) *phase {
	e.wrap.on.Store(true)
	ph := measure(e, func() []op { return w.drive(e, 0, w.tracedOps, true) })
	e.wrap.on.Store(false)
	var ids []string
	for _, o := range ph.ops {
		if o.job == nil {
			ids = append(ids, o.req)
		}
	}
	serve := e.wrap.collect(ids)
	for i, o := range ph.ops {
		if o.job != nil {
			jobSpans(tr, i, o.job)
			continue
		}
		sv, ok := serve[o.req]
		requestSpans(tr, o, sv, ok)
	}
	return ph
}

// newResult counts the phases' operations. A run is correct when no
// response carried wrong bytes and the jobs kept their memory budget.
func newResult(w *workload, phases ...*phase) result {
	res := result{Correct: true, Metrics: make(map[string]metric)}
	for _, ph := range phases {
		for _, o := range ph.ops {
			res.Attempted++
			if !o.ok {
				res.Failed++
			}
			if o.mismatch {
				res.Correct = false
			}
			if o.job != nil && o.job.view.Stats != nil && o.job.view.Stats.PeakBufferRecords > w.budget {
				res.Correct = false
			}
		}
	}
	return res
}

// phaseFigures computes the client-side figures of an untraced phase.
// An operation is a request on online-json and bulk-binary-* and a whole
// job (submit to last result byte) on jobs-outofcore.
//
// The end-to-end ones are CPU-time figures: setup_s is the median
// process CPU time of a server start and cpu_ns_per_elem the phase's CPU
// time per verified output element. On a shared host the hypervisor
// takes the guest's CPUs away for minutes at a time; the wall-clock
// figures (throughput, latency, the SLO share, wall set-up time) then
// move by more than any bound a gate can carry, while CPU time, from
// which the kernel leaves that stolen time out, moves far less. The heap
// peak, which follows how collections line up with requests, moves with
// the steal too. These are reported beside the gated ones, ungated
// (README.md has the measurements). Throughput and
// latency are medians over the run's seconds, so a burst of contention
// that spoils a few seconds does not move them.
func phaseFigures(w *workload, ph *phase, setups []setupTime) map[string]float64 {
	okCount, inSLO, elems := 0, 0, 0
	for _, o := range ph.ops {
		if o.ok {
			okCount++
			elems += o.elems
			if o.latency() <= w.slo {
				inSLO++
			}
		}
	}
	var setupWall, setupCPU []time.Duration
	for _, s := range setups {
		setupWall = append(setupWall, s.wall)
		setupCPU = append(setupCPU, s.cpu)
	}
	n := float64(max(len(ph.ops), 1))
	m := map[string]float64{
		"setup_s":                medianDur(setupCPU).Seconds(),
		"success_ratio":          float64(okCount) / n,
		"heap_peak_mb":           ph.heapPeak / 1e6,
		"setup_wall_ms":          stats.Millis(medianDur(setupWall)),
		"throughput_elems_per_s": median(throughputPerSecond(ph)),
		"latency_p50_ms":         stats.Millis(medianDur(latencyPerSecond(ph))),
		"slo_met_ratio":          float64(inSLO) / n,
		"runtime.cpu_util":       float64(ph.cpu) / float64(ph.end.Sub(ph.start)),
	}
	if elems > 0 {
		m["cpu_ns_per_elem"] = float64(ph.cpu.Nanoseconds()) / float64(elems)
	}
	return m
}

// throughputPerSecond returns, for each whole second of the phase, the
// output elements of verified operations per second, each operation's
// elements spread evenly over the interval from its send to its end (a
// 32 MiB job then counts in every second it ran, not only the last).
func throughputPerSecond(ph *phase) []float64 {
	secs := int(ph.end.Sub(ph.start) / time.Second)
	if secs == 0 {
		var elems int
		for _, o := range ph.ops {
			if o.ok {
				elems += o.elems
			}
		}
		return []float64{float64(elems) / ph.end.Sub(ph.start).Seconds()}
	}
	w := make([]float64, secs)
	for _, o := range ph.ops {
		from, to := o.sent.Sub(ph.start), o.end.Sub(ph.start)
		if !o.ok || to <= from {
			continue
		}
		for i := int(from / time.Second); i < secs && time.Duration(i)*time.Second < to; i++ {
			lo := max(from, time.Duration(i)*time.Second)
			hi := min(to, time.Duration(i+1)*time.Second)
			w[i] += float64(o.elems) * float64(hi-lo) / float64(to-from)
		}
	}
	return w
}

// latencyPerSecond returns the median latency of the verified
// operations due in each second of the phase that has any.
func latencyPerSecond(ph *phase) []time.Duration {
	bySec := make(map[int][]time.Duration)
	for _, o := range ph.ops {
		if o.ok {
			s := int(o.due.Sub(ph.start) / time.Second)
			bySec[s] = append(bySec[s], o.latency())
		}
	}
	out := make([]time.Duration, 0, len(bySec))
	for _, lat := range bySec {
		out = append(out, medianDur(lat))
	}
	return out
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
