package jobs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"mergepath/internal/extsort"
)

// copyShare is the fraction of a job's progress bar assigned to the
// copy-in phase (dataset file -> result file). The external sort's own
// (done, total) accounting fills the remaining 1-copyShare, so progress
// is monotone across the phase boundary by construction.
const copyShare = 0.1

// copyChunkBytes is the copy-in I/O granularity; the job context is
// checked between chunks so cancellation lands promptly.
const copyChunkBytes = 1 << 18

// mathFloat and mathBits convert between the atomic progress cell's
// uint64 representation and the float64 it stores.
func mathFloat(bits uint64) float64 { return math.Float64frombits(bits) }
func mathBits(f float64) uint64     { return math.Float64bits(f) }

// worker consumes the bounded queue until Close; one goroutine per
// MaxConcurrent slot.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

// runJob executes one sortfile job: copy the dataset to the result file,
// external-sort the result file in place under the memory budget, and
// finalize. Any error, panic or cancellation lands the job in the right
// terminal state with its temp files cleaned up.
func (m *Manager) runJob(j *job) {
	m.mu.Lock()
	if j.state != Pending {
		// Canceled while queued; Cancel already finalized it.
		m.mu.Unlock()
		return
	}
	j.state = Running
	j.started = time.Now()
	m.pending--
	m.running++
	j.spans = append(j.spans, Span{Name: "queue_wait", StartMS: 0, DurMS: millis(j.started.Sub(j.created))})
	m.mu.Unlock()
	m.jnl.append(record{T: recRunning, ID: j.id, JobType: j.typ, Dataset: j.datasetID, Records: j.records})

	// The sort runs against a .result.tmp file; only after the sorted
	// data is fsynced and checksummed is it renamed to .result, and only
	// after the rename does the journal commit the job as done. A crash
	// in any window leaves either a tmp file (orphan, GC'd at restart)
	// or a result the journal does not vouch for (same) — never a
	// half-written file a client can stream.
	resultPath := filepath.Join(m.dir, j.id+".result")
	tmpPath := resultPath + ".tmp"
	scratchPath := filepath.Join(m.dir, j.id+".scratch")
	cleanup := func() {
		m.removeFile(tmpPath)
		m.removeFile(scratchPath)
	}
	defer func() {
		if r := recover(); r != nil {
			cleanup()
			m.mu.Lock()
			post := m.finalizeLocked(j, Failed, fmt.Errorf("jobs: panic: %v", r))
			m.mu.Unlock()
			if post != nil {
				post()
			}
		}
	}()

	err := m.execute(j, tmpPath, scratchPath)
	if err == nil {
		err = m.sealResult(tmpPath, resultPath)
	}
	state := Done
	if err != nil {
		cleanup()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			state = Canceled
		} else {
			state = Failed
		}
	}
	m.mu.Lock()
	if state == Done {
		j.resultPath = resultPath
		j.resultBytes = int64(j.records) * extsort.RecordBytes
	}
	post := m.finalizeLocked(j, state, err)
	m.mu.Unlock()
	if post != nil {
		post()
	}
}

// sealResult publishes a finished sort atomically: fsync the sorted
// tmp file (per policy), write its checksum sidecar, rename sidecar
// then data into place, and fsync the directory. After sealResult
// returns the result is streamable and verifiable; the journal's
// job-done record (appended by finalize) is what commits it against
// restart.
func (m *Manager) sealResult(tmpPath, resultPath string) error {
	sync := m.cfg.Fsync != FsyncNever
	if sync {
		f, err := os.OpenFile(tmpPath, os.O_WRONLY, 0)
		if err != nil {
			return fmt.Errorf("jobs: seal result: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("jobs: seal result fsync: %w", err)
		}
		m.fsyncs.Add(1)
		if err := f.Close(); err != nil {
			return fmt.Errorf("jobs: seal result: %w", err)
		}
	}
	if _, err := extsort.WriteChecksumFile(tmpPath, m.cfg.BlockRecords, sync); err != nil {
		return fmt.Errorf("jobs: seal result: %w", err)
	}
	if sync {
		m.fsyncs.Add(1) // the sidecar fsync inside WriteChecksumFile
	}
	// Sidecar first: a visible .result always has its .crc.
	if err := os.Rename(tmpPath+extsort.ChecksumSuffix, resultPath+extsort.ChecksumSuffix); err != nil {
		return fmt.Errorf("jobs: seal result: %w", err)
	}
	if err := os.Rename(tmpPath, resultPath); err != nil {
		os.Remove(resultPath + extsort.ChecksumSuffix)
		return fmt.Errorf("jobs: seal result: %w", err)
	}
	if sync {
		m.syncDir()
	}
	return nil
}

// execute is the fallible body of runJob. On success the sorted (but
// not yet sealed) result is at resultPath — the caller's .result.tmp —
// and the scratch file is already removed.
func (m *Manager) execute(j *job, resultPath, scratchPath string) error {
	if inj := m.cfg.Fault; inj != nil {
		if err := inj.Before("job"); err != nil {
			return err
		}
	}
	setPhase := func(name string) {
		p := name
		j.phase.Store(&p)
	}

	setPhase("copy_in")
	copyStart := time.Now()
	if err := m.copyIn(j, resultPath); err != nil {
		return err
	}
	m.addSpan(j, Span{
		Name:    "copy_in",
		StartMS: millis(copyStart.Sub(j.created)),
		DurMS:   millis(time.Since(copyStart)),
	})
	j.bumpProgress(copyShare)

	dev, err := extsort.OpenFileDevice(resultPath, m.cfg.BlockRecords)
	if err != nil {
		return err
	}
	defer dev.Close()
	dev.SetFault(m.cfg.Fault)
	scratch, err := extsort.CreateFileDevice(scratchPath, j.records, m.cfg.BlockRecords)
	if err != nil {
		return err
	}
	// The scratch file is pure temp state: remove it on every exit path.
	defer scratch.Remove()
	scratch.SetFault(m.cfg.Fault)

	if inj := m.cfg.Fault; inj != nil {
		if err := inj.Before("sortfile"); err != nil {
			return err
		}
	}

	// Track extsort phase transitions into job spans, and map the
	// engine's record accounting onto the job's progress bar.
	var curPhase string
	var phaseStart time.Time
	stats, err := extsort.Sort[int64](j.ctx, dev, scratch, j.records, extsort.Config{
		MemoryRecords: m.cfg.MemoryRecords,
		Workers:       m.cfg.Workers,
		FanIn:         m.cfg.FanIn,
		Progress: func(done, total int64, phase string) {
			if phase != curPhase {
				now := time.Now()
				if curPhase != "" {
					m.addSpan(j, Span{
						Name:    curPhase,
						StartMS: millis(phaseStart.Sub(j.created)),
						DurMS:   millis(now.Sub(phaseStart)),
					})
				}
				curPhase, phaseStart = phase, now
				setPhase(phase)
			}
			if total > 0 {
				j.bumpProgress(copyShare + (1-copyShare)*float64(done)/float64(total))
			}
		},
	})
	if curPhase != "" {
		m.addSpan(j, Span{
			Name:    curPhase,
			StartMS: millis(phaseStart.Sub(j.created)),
			DurMS:   millis(time.Since(phaseStart)),
		})
	}
	if err != nil {
		return err
	}
	m.blockReads.Add(stats.BlockReads)
	m.blockWrites.Add(stats.BlockWrites)
	m.mu.Lock()
	j.stats = &stats
	m.mu.Unlock()
	return dev.Close()
}

// copyIn streams the dataset file into the job's tmp result file in
// chunks through the checksum-verifying reader — a dataset rotted on
// disk fails the job with a typed corruption error instead of sorting
// garbage — checking the job context between chunks and feeding the
// copy-in share of the progress bar.
func (m *Manager) copyIn(j *job, resultPath string) error {
	src, err := extsort.OpenVerifiedReader(j.dsPath)
	if err != nil {
		if errors.Is(err, extsort.ErrCorrupt) {
			m.corruption.Add(1)
		}
		return fmt.Errorf("jobs: open dataset: %w", err)
	}
	defer src.Close()
	src.SetFault(m.cfg.Fault)
	dst, err := os.OpenFile(resultPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return fmt.Errorf("jobs: create result: %w", err)
	}
	total := int64(j.records) * extsort.RecordBytes
	var copied int64
	buf := make([]byte, copyChunkBytes)
	for {
		if err := j.ctx.Err(); err != nil {
			dst.Close()
			return err
		}
		n, rerr := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				dst.Close()
				return fmt.Errorf("jobs: copy-in: %w", werr)
			}
			copied += int64(n)
			if total > 0 {
				j.bumpProgress(copyShare * float64(copied) / float64(total))
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			dst.Close()
			if errors.Is(rerr, extsort.ErrCorrupt) {
				m.corruption.Add(1)
			}
			return fmt.Errorf("jobs: copy-in: %w", rerr)
		}
	}
	if copied != total {
		dst.Close()
		return fmt.Errorf("jobs: dataset changed size mid-copy: have %d bytes, want %d", copied, total)
	}
	return dst.Close()
}

// addSpan appends a finished phase timing under the manager lock.
func (m *Manager) addSpan(j *job, s Span) {
	m.mu.Lock()
	j.spans = append(j.spans, s)
	m.mu.Unlock()
}
