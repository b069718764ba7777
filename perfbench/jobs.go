package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"mergepath/internal/extsort"
	"mergepath/internal/jobs"
	"mergepath/internal/server"
	"mergepath/internal/stats"
)

// jobsParams shapes jobs-outofcore: sequential out-of-core sort jobs
// over HTTP on a dataset budgetDiv times larger than the job memory.
type jobsParams struct {
	records    int // dataset size in int64 records
	budgetDiv  int // MemoryRecords = records / budgetDiv
	poll       time.Duration
	slo        time.Duration
	warmOps    int
	tracedJobs int
}

// The latency limit is 1.25 times the p90 (870 ms) of the 46 jobs of
// two 20 s calibration runs on a 2-CPU host, rounded up.
var jobsDefaults = jobsParams{
	records: 4 << 20, budgetDiv: 10, poll: 5 * time.Millisecond,
	slo: 1100 * time.Millisecond, warmOps: 1, tracedJobs: 3,
}

// jobsOff is the jobs configuration of the workloads that do not use
// jobs: the spill directory stays inside the run directory and there
// is nothing to journal.
func jobsOff(dir string) jobs.Config {
	return jobs.Config{Dir: dir, DisableJournal: true}
}

// jobRun is what the client saw of one job.
type jobRun struct {
	upload0, upload1 time.Time
	submit0, submit1 time.Time
	seen             time.Time // the poll that first saw the job done
	stream0, stream1 time.Time
	view             jobs.View // the job document at done
}

func newJobs(p jobsParams, seed int64) *workload {
	rng := newRNG(seed, 3)
	data := make([]int64, p.records)
	for i := range data {
		data[i] = rng.Int64()
	}
	dataset := records(data)
	want := records(sortedConcat(data))
	budget := p.records / p.budgetDiv

	// Layer replays: one budget-sized chunk, as run formation sorts it,
	// and as FanIn sorted runs, as the merge phase reads them.
	chunk := data[:budget]
	var in layerInputs
	in.sorts = [][]int64{chunk}
	half := budget / 2
	in.uniform = [][2][]int64{{sortedConcat(chunk[:half]), sortedConcat(chunk[half:])}}
	runs := make([][]int64, extsort.DefaultFanIn)
	for j := range runs {
		runs[j] = sortedConcat(chunk[j*budget/len(runs) : (j+1)*budget/len(runs)])
	}
	in.kway = [][][]int64{runs}

	return &workload{
		name: workloadJobs,
		config: func(dir string) server.Config {
			return server.Config{Jobs: jobs.Config{Dir: dir, MemoryRecords: budget, Fsync: jobs.FsyncState}}
		},
		drive: func(e *env, d time.Duration, n int, traced bool) []op {
			cl := newClient()
			defer cl.CloseIdleConnections()
			return closedLoop(d, n, func(int) op { return runJob(cl, e.base, dataset, want, p.poll) })
		},
		warmOps:   p.warmOps,
		tracedOps: p.tracedJobs,
		slo:       p.slo,
		layers:    in,
		budget:    budget,
		params: map[string]any{
			"records": p.records, "dataset_bytes": len(dataset), "memory_records": budget,
			"poll_ms": stats.Millis(p.poll), "journal": true, "fsync_policy": string(jobs.FsyncState),
			"slo_ms": stats.Millis(p.slo),
		},
	}
}

// runJob uploads the dataset, submits a sortfile job, polls it to done,
// streams the result comparing every byte with want, and deletes the
// dataset. The op's latency runs from submit to the last result byte.
func runJob(cl *http.Client, base string, dataset, want []byte, poll time.Duration) op {
	jr := &jobRun{}
	o := op{kind: "job", elems: len(want) / 8, job: jr}
	fail := func() op {
		if o.end.IsZero() {
			o.end = time.Now()
		}
		return o
	}
	jr.upload0 = time.Now()
	o.sent = jr.upload0
	var ds jobs.Dataset
	if !call(cl, http.MethodPost, base+"/v1/datasets", "application/octet-stream", dataset, http.StatusCreated, &ds) {
		return fail()
	}
	jr.upload1 = time.Now()
	jr.submit0 = jr.upload1
	o.due = jr.submit0
	body := jsonLine(map[string]string{"type": "sortfile", "dataset": ds.ID})
	var v jobs.View
	if !call(cl, http.MethodPost, base+"/v1/jobs", "application/json", body, http.StatusAccepted, &v) {
		return fail()
	}
	jr.submit1 = time.Now()
	for v.State == jobs.Pending || v.State == jobs.Running {
		time.Sleep(poll)
		if !call(cl, http.MethodGet, base+"/v1/jobs/"+v.ID, "", nil, http.StatusOK, &v) {
			return fail()
		}
	}
	jr.seen = time.Now()
	jr.view = v
	if v.State != jobs.Done {
		return fail()
	}
	jr.stream0 = time.Now()
	resp, err := cl.Get(base + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		return fail()
	}
	same, mismatch := streamEqual(resp.Body, want)
	resp.Body.Close()
	jr.stream1 = time.Now()
	o.end = jr.stream1
	o.ok = resp.StatusCode == http.StatusOK && same
	o.mismatch = resp.StatusCode == http.StatusOK && mismatch
	if !call(cl, http.MethodDelete, base+"/v1/datasets/"+ds.ID, "", nil, http.StatusOK, nil) {
		o.ok = false
	}
	return o
}

// call sends one request and decodes a JSON answer into out (when
// non-nil). It reports whether the status was the expected one.
func call(cl *http.Client, method, url, ctype string, body []byte, status int, out any) bool {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, r)
	if err != nil {
		return false
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := cl.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != status {
		_, _ = io.Copy(io.Discard, resp.Body)
		return false
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err == nil
	}
	return json.NewDecoder(resp.Body).Decode(out) == nil
}

// streamEqual compares r with want chunk by chunk. same means every
// byte matched and the lengths agree; mismatch means bytes were read
// that differ from want (a short or failed read is neither).
func streamEqual(r io.Reader, want []byte) (same, mismatch bool) {
	buf := make([]byte, 256<<10)
	off := 0
	for {
		n, err := r.Read(buf)
		if n > 0 {
			if off+n > len(want) || !bytes.Equal(buf[:n], want[off:off+n]) {
				return false, true
			}
			off += n
		}
		if err == io.EOF {
			return off == len(want), false
		}
		if err != nil {
			return false, false
		}
	}
}

// jobSpans records one traced job: the client's upload, submit, poll
// lag and stream, and the server's phase spans from the job's View.
func jobSpans(tr *tracer, i int, jr *jobRun) {
	req := fmt.Sprintf("job-%d", i)
	root := tr.add(0, "job", req, jr.upload0, jr.stream1)
	tr.add(root, "jobs.upload", req, jr.upload0, jr.upload1)
	tr.add(root, "jobs.submit", req, jr.submit0, jr.submit1)
	v := jr.view
	srv := tr.add(root, "jobs.server", req, v.Created, v.Finished)
	for _, s := range v.Spans {
		if s.Name == "total" {
			continue
		}
		at := v.Created.Add(time.Duration(s.StartMS * float64(time.Millisecond)))
		tr.add(srv, jobPhaseName(s.Name), req, at, at.Add(time.Duration(s.DurMS*float64(time.Millisecond))))
	}
	tr.add(root, "jobs.poll_lag", req, v.Finished, jr.seen)
	tr.add(root, "jobs.stream", req, jr.stream0, jr.stream1)
}

// jobPhaseName names a job View phase after the layer that runs it.
func jobPhaseName(phase string) string {
	if phase == "run_formation" || phase == "merge" {
		return "extsort." + phase
	}
	return "jobs." + phase
}
