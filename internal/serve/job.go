package serve

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"injectable/internal/campaign"
)

// JobStatus is a job's lifecycle state.
type JobStatus string

const (
	StatusQueued   JobStatus = "queued"
	StatusRunning  JobStatus = "running"
	StatusDone     JobStatus = "done"
	StatusFailed   JobStatus = "failed"
	StatusCanceled JobStatus = "canceled"
)

// job is one admitted campaign execution. Identical concurrent
// submissions all share a single job (singleflight), so the stream buffer
// supports any number of concurrent readers over one append-only writer.
type job struct {
	id   string
	spec JobSpec // normalized
	key  string
	// cspec is the campaign compiled at admission; the run takes it.
	cspec *campaign.Spec
	// trace is the job's trace id: the submitter's X-Trace-Id when one
	// was propagated (fabric dispatch), else the canonical spec key.
	trace string

	// submitted is when the job was admitted (for queue-wait latency).
	submitted time.Time

	// cancel aborts the job's run context; safe to call at any time after
	// admission, including before the job is popped.
	cancel context.CancelFunc
	// canceledCtx is the context cancel trips; the executor derives its
	// run context (with deadline) from it.
	canceledCtx context.Context

	buf  streamBuf
	done chan struct{} // closed exactly once when the job reaches a terminal state

	mu     sync.Mutex
	status JobStatus
	errMsg string
}

func newJob(id string, spec JobSpec, now time.Time) *job {
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:          id,
		spec:        spec,
		key:         spec.Key(),
		submitted:   now,
		cancel:      cancel,
		canceledCtx: ctx,
		done:        make(chan struct{}),
		status:      StatusQueued,
	}
	return j
}

// setStatus transitions the job; terminal transitions close done.
func (j *job) setStatus(s JobStatus, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status == StatusDone || j.status == StatusFailed || j.status == StatusCanceled {
		return // already terminal
	}
	j.status = s
	j.errMsg = errMsg
	if s == StatusDone || s == StatusFailed || s == StatusCanceled {
		close(j.done)
	}
}

// snapshot returns the job's externally visible state.
func (j *job) snapshot() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobInfo{
		ID:         j.id,
		Experiment: j.spec.Experiment,
		Target:     j.spec.Target,
		Trials:     j.spec.Trials,
		SeedBase:   j.spec.SeedBase,
		Key:        j.key,
		Status:     j.status,
		Error:      j.errMsg,
	}
}

// JobInfo is the wire form of a job's status.
type JobInfo struct {
	ID         string    `json:"id"`
	Experiment string    `json:"experiment"`
	Target     string    `json:"target,omitempty"`
	Trials     int       `json:"trials"`
	SeedBase   uint64    `json:"seed_base"`
	Key        string    `json:"key"`
	Status     JobStatus `json:"status"`
	Error      string    `json:"error,omitempty"`
}

// streamBuf is a broadcast byte buffer: one writer appends, any number of
// readers consume from their own offset, blocking until more bytes arrive
// or the stream is sealed. Sealing is idempotent. The campaign's Binary
// sink writes into it, so every subscriber — including ones that attach
// mid-run — observes the exact same byte sequence.
type streamBuf struct {
	mu     sync.Mutex
	cond   *sync.Cond
	data   []byte
	sealed bool
}

func (b *streamBuf) initLocked() {
	if b.cond == nil {
		b.cond = sync.NewCond(&b.mu)
	}
}

// Write appends; it never fails (writes after seal are dropped, which
// only happens on cancellation races).
func (b *streamBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.initLocked()
	if !b.sealed {
		b.data = append(b.data, p...)
		b.cond.Broadcast()
	}
	return len(p), nil
}

// seal marks the stream complete; readers drain and then see EOF.
func (b *streamBuf) seal() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.initLocked()
	b.sealed = true
	b.cond.Broadcast()
}

// bytes returns a copy of the full stream (valid only after seal for
// byte-identical replay semantics).
func (b *streamBuf) bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]byte, len(b.data))
	copy(out, b.data)
	return out
}

// sealedBytes returns the underlying buffer without copying, and whether
// the stream is sealed. Writes are dropped once sealed, so the returned
// slab is immutable — this is what lets the cache and the HTTP layer
// serve completed streams zero-copy.
func (b *streamBuf) sealedBytes() ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.sealed {
		return nil, false
	}
	return b.data, true
}

// reader returns a reader over the stream from offset 0. Its waits block
// until bytes arrive or the stream is sealed; ctx aborts a blocked wait.
func (b *streamBuf) reader(ctx context.Context) *streamReader {
	return &streamReader{buf: b, ctx: ctx}
}

type streamReader struct {
	buf *streamBuf
	ctx context.Context
	off int
	// waker re-checks ctx while a wait is idle; one timer per reader,
	// re-armed on every wait.
	waker *time.Timer
}

// WriteTo writes the stream from the reader's offset to dst until the
// seal (io.WriterTo), one Write per wake-up. It hands dst the buffer's
// own bytes without copying: each chunk is sliced under the lock and
// written outside it, which is safe because the writer only appends, and
// append never rewrites bytes below len.
func (r *streamReader) WriteTo(dst io.Writer) (int64, error) {
	var n int64
	for {
		chunk, err := r.next()
		if len(chunk) > 0 {
			m, werr := dst.Write(chunk)
			n += int64(m)
			if werr != nil {
				return n, werr
			}
		}
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// next waits until the stream holds bytes past the reader's offset and
// returns all of them, or io.EOF once it is sealed and drained.
func (r *streamReader) next() ([]byte, error) {
	b := r.buf
	b.mu.Lock()
	defer b.mu.Unlock()
	b.initLocked()
	for {
		if end := len(b.data); r.off < end {
			chunk := b.data[r.off:end:end]
			r.off = end
			return chunk, nil
		}
		if b.sealed {
			return nil, io.EOF
		}
		if err := r.ctx.Err(); err != nil {
			return nil, err
		}
		// Wake on writes, seals and periodic ticks so a canceled context
		// is noticed even when the stream is idle.
		if r.waker == nil {
			r.waker = time.AfterFunc(100*time.Millisecond, b.cond.Broadcast)
		} else {
			r.waker.Reset(100 * time.Millisecond)
		}
		b.cond.Wait()
		r.waker.Stop()
	}
}

// jobIDs hands out sequential human-scannable ids ("j-0001", ...).
type jobIDs struct {
	mu sync.Mutex
	n  int
}

func (g *jobIDs) next() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
	return fmt.Sprintf("j-%04d", g.n)
}
