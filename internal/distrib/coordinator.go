package distrib

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// DefaultPipelineDepth is the per-worker in-flight shard window when
// none is configured: deep enough to overlap dispatch latency with
// execution, shallow enough that a dropped worker strands little work.
const DefaultPipelineDepth = 2

// Options parameterises a distributed campaign run.
type Options struct {
	// Workers are the base URLs of the shard workers
	// (e.g. http://127.0.0.1:9101). At least one is required.
	Workers []string
	// ShardSize bounds scenarios per shard (<= 0 selects
	// campaign.DefaultShardSize; at most campaign.MaxShardSize).
	ShardSize int
	// PipelineDepth bounds how many shards may be in flight to one
	// worker at once (<= 0 selects DefaultPipelineDepth; 1 disables
	// pipelining). The merged report is byte-identical for every depth —
	// rows install by scenario index and the fold is order-free.
	PipelineDepth int
	// ShardTimeout is the per-attempt deadline of one shard (default
	// 2m). A timed-out attempt counts as a failure and the shard is
	// retried, possibly on another worker.
	ShardTimeout time.Duration
	// MaxAttempts bounds attempts per shard before the campaign fails
	// (default 3).
	MaxAttempts int
	// DropAfter is how many consecutive failures retire a worker
	// (default 3). Its in-flight shards are requeued for the survivors.
	DropAfter int
	// Client is the HTTP client shards travel over (default
	// http.DefaultClient; per-attempt deadlines come from ShardTimeout,
	// not the client).
	Client *http.Client
	// OnEvent, when set, observes dispatch/completion/failure/drop
	// events. Calls are serialised; the callback must not block for
	// long — it runs on the dispatch path.
	OnEvent func(Event)
}

func (o Options) withDefaults() Options {
	if o.ShardSize <= 0 {
		o.ShardSize = campaign.DefaultShardSize
	}
	if o.PipelineDepth <= 0 {
		o.PipelineDepth = DefaultPipelineDepth
	}
	if o.ShardTimeout <= 0 {
		o.ShardTimeout = 2 * time.Minute
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.DropAfter <= 0 {
		o.DropAfter = 3
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	return o
}

// EventType classifies coordinator events.
type EventType string

const (
	// EventDispatch fires when a shard is handed to a worker.
	EventDispatch EventType = "dispatch"
	// EventShardDone fires when a shard's rows are installed.
	EventShardDone EventType = "shard_done"
	// EventShardFailed fires when an attempt fails (the shard will be
	// retried unless attempts are exhausted).
	EventShardFailed EventType = "shard_failed"
	// EventWorkerDropped fires when a worker is retired after
	// consecutive failures.
	EventWorkerDropped EventType = "worker_dropped"
)

// Event is one step of a distributed run.
type Event struct {
	Type    EventType           `json:"type"`
	Worker  string              `json:"worker"`
	Shard   campaign.ShardRange `json:"shard"`
	Attempt int                 `json:"attempt"`
	// Done and Total are scenarios completed / corpus size after this
	// event.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Err carries the failure of shard_failed / worker_dropped events.
	Err string `json:"err,omitempty"`
	// ElapsedNS is the attempt's wall-clock duration, set on shard_done
	// and shard_failed events.
	ElapsedNS int64 `json:"elapsed_ns,omitempty"`
	// Bytes is the response body size as it travelled (post-compression),
	// set on shard_done events.
	Bytes int64 `json:"bytes,omitempty"`
}

// Stats summarises a distributed run for operators: it accumulates
// across the coordinator's events, so a caller that also passes OnEvent
// sees both.
type Stats struct {
	// Shards counts installed shards; Retries counts failed attempts
	// that were requeued; DroppedWorkers counts retired workers.
	Shards, Retries, DroppedWorkers int
	// BytesOnWire totals shard response bodies as they travelled
	// (post-compression).
	BytesOnWire int64
}

type shardTask struct {
	r        campaign.ShardRange
	attempts int
}

type coordinator struct {
	job  *campaign.Job
	ref  campaign.CorpusRef
	cfg  ShardConfig
	opts Options

	queue chan *shardTask
	// remaining counts shards not yet installed; allDone closes when it
	// reaches zero so idle workers stop waiting on the queue.
	remaining atomic.Int64
	allDone   chan struct{}
	doneOnce  sync.Once

	stats   Stats
	statsMu sync.Mutex

	// fatal records the first unrecoverable failure and cancels the run.
	fatalMu  sync.Mutex
	fatalErr error
	cancel   context.CancelFunc

	eventMu sync.Mutex
}

// Run executes the job's pending scenarios over the workers and folds
// the final report. The report is byte-identical to a local
// (*campaign.Job).Run for any worker set, shard size, pipeline depth,
// or failure schedule: rows are installed by scenario index and the
// fold is the same serial aggregate. The coordinator ships only
// (spec, range) per shard and folds the workers' partial fingerprints
// — the corpus is never materialized on this side. Run fails when a
// shard exhausts MaxAttempts, when every worker has been dropped with
// shards still pending, or when ctx is cancelled; the job keeps the
// rows installed so far, so a later Run — local or
// distributed — resumes from the pending set.
func Run(ctx context.Context, job *campaign.Job, opts Options) (*campaign.Report, error) {
	rep, _, err := RunStats(ctx, job, opts)
	return rep, err
}

// RunStats is Run plus the accumulated run statistics (valid even when
// the run fails).
func RunStats(ctx context.Context, job *campaign.Job, opts Options) (*campaign.Report, Stats, error) {
	opts = opts.withDefaults()
	if len(opts.Workers) == 0 {
		return nil, Stats{}, fmt.Errorf("distrib: no workers")
	}
	if opts.ShardSize > campaign.MaxShardSize {
		return nil, Stats{}, fmt.Errorf("distrib: shard size %d exceeds the maximum %d", opts.ShardSize, campaign.MaxShardSize)
	}
	if err := campaign.CheckSimulation(job.Config().Seeds, job.Config().Duration); err != nil {
		return nil, Stats{}, fmt.Errorf("distrib: %w", err)
	}
	shards := job.PendingRanges(opts.ShardSize)
	if len(shards) == 0 {
		rep, err := job.Run(ctx)
		return rep, Stats{}, err
	}
	_, rsp := obs.StartSpan(ctx, "corpus.ref")
	ref, err := campaign.NewSpecRef(job.Spec())
	rsp.End()
	if err != nil {
		return nil, Stats{}, fmt.Errorf("distrib: %w", err)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	c := &coordinator{
		job:     job,
		ref:     ref,
		cfg:     NewShardConfig(job.Config()),
		opts:    opts,
		queue:   make(chan *shardTask, len(shards)),
		allDone: make(chan struct{}),
		cancel:  cancel,
	}
	c.remaining.Store(int64(len(shards)))
	for _, r := range shards {
		c.queue <- &shardTask{r: r}
	}

	var wg sync.WaitGroup
	for _, addr := range opts.Workers {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			c.workerLoop(runCtx, addr)
		}(addr)
	}
	wg.Wait()

	c.statsMu.Lock()
	stats := c.stats
	c.statsMu.Unlock()
	c.fatalMu.Lock()
	fatal := c.fatalErr
	c.fatalMu.Unlock()
	switch {
	case fatal != nil:
		return nil, stats, fatal
	case ctx.Err() != nil:
		return nil, stats, ctx.Err()
	case c.remaining.Load() > 0:
		return nil, stats, fmt.Errorf("distrib: all %d workers dropped with %d shards pending",
			len(opts.Workers), c.remaining.Load())
	}
	rep, err := job.Run(ctx)
	return rep, stats, err
}

// workerLoop pumps shards to one worker, keeping up to PipelineDepth
// in flight: a free slot pulls the next queued shard and dispatches it
// on its own goroutine, so the worker's pool never drains while an
// acknowledgement is in transit. Consecutive failures (counted across
// the in-flight window) retire the worker; its unfinished shards have
// already requeued themselves for the survivors.
func (c *coordinator) workerLoop(ctx context.Context, addr string) {
	slots := make(chan struct{}, c.opts.PipelineDepth)
	for i := 0; i < c.opts.PipelineDepth; i++ {
		slots <- struct{}{}
	}
	var consecutive atomic.Int64
	dropped := make(chan struct{})
	var dropOnce sync.Once

	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.allDone:
			return
		case <-dropped:
			return
		case <-slots:
		}
		select {
		case <-ctx.Done():
			return
		case <-c.allDone:
			return
		case <-dropped:
			return
		case t := <-c.queue:
			c.emit(Event{Type: EventDispatch, Worker: addr, Shard: t.r, Attempt: t.attempts + 1})
			wg.Add(1)
			go func(t *shardTask) {
				defer wg.Done()
				defer func() { slots <- struct{}{} }()
				t0 := time.Now()
				bytes, err := c.runShard(ctx, addr, t)
				elapsed := time.Since(t0)
				if err == nil {
					consecutive.Store(0)
					c.statsMu.Lock()
					c.stats.Shards++
					c.stats.BytesOnWire += bytes
					c.statsMu.Unlock()
					c.emit(Event{Type: EventShardDone, Worker: addr, Shard: t.r,
						Attempt: t.attempts + 1, ElapsedNS: int64(elapsed), Bytes: bytes})
					if c.remaining.Add(-1) == 0 {
						c.doneOnce.Do(func() { close(c.allDone) })
					}
					return
				}
				if ctx.Err() != nil {
					// Cancelled mid-flight: not the worker's fault. Requeue so
					// a restarted run still sees the shard as pending.
					c.queue <- t
					return
				}
				t.attempts++
				c.statsMu.Lock()
				c.stats.Retries++
				c.statsMu.Unlock()
				c.emit(Event{Type: EventShardFailed, Worker: addr, Shard: t.r,
					Attempt: t.attempts, Err: err.Error(), ElapsedNS: int64(elapsed)})
				if t.attempts >= c.opts.MaxAttempts {
					c.fail(fmt.Errorf("distrib: shard [%d,%d) failed %d times, last on %s: %w",
						t.r.Start, t.r.End(), t.attempts, addr, err))
					return
				}
				c.queue <- t
				if consecutive.Add(1) >= int64(c.opts.DropAfter) {
					dropOnce.Do(func() {
						c.statsMu.Lock()
						c.stats.DroppedWorkers++
						c.statsMu.Unlock()
						c.emit(Event{Type: EventWorkerDropped, Worker: addr, Shard: t.r,
							Attempt: t.attempts, Err: err.Error()})
						close(dropped)
					})
				}
			}(t)
		}
	}
}

func (c *coordinator) fail(err error) {
	c.fatalMu.Lock()
	if c.fatalErr == nil {
		c.fatalErr = err
	}
	c.fatalMu.Unlock()
	c.cancel()
}

func (c *coordinator) emit(e Event) {
	if c.opts.OnEvent == nil {
		return
	}
	e.Done, e.Total = c.job.Progress()
	c.eventMu.Lock()
	c.opts.OnEvent(e)
	c.eventMu.Unlock()
}

// countingReader counts bytes as they come off the wire, before any
// decompression.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// runShard executes one attempt of one shard against one worker under
// the per-shard deadline, verifies the response is exactly the
// requested range, and installs the rows with their partial
// fingerprint. It returns the response body size as it travelled.
// When ctx carries a trace the request travels with
// trace headers and the worker's spans come back in the response,
// spliced under this attempt's dispatch span.
func (c *coordinator) runShard(ctx context.Context, addr string, t *shardTask) (wireBytes int64, err error) {
	sctx, sp := obs.StartSpan(ctx, "shard.dispatch")
	sp.SetAttr("worker", addr)
	sp.SetInt("start", int64(t.r.Start))
	sp.SetInt("count", int64(t.r.Count))
	sp.SetInt("attempt", int64(t.attempts+1))
	defer func() {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	}()

	attemptCtx, cancel := context.WithTimeout(ctx, c.opts.ShardTimeout)
	defer cancel()

	body, err := json.Marshal(ShardRequest{
		Version: WireVersion,
		Corpus:  c.ref,
		Start:   t.r.Start,
		Count:   t.r.Count,
		Config:  c.cfg,
	})
	if err != nil {
		return 0, err
	}
	url := strings.TrimRight(addr, "/") + ShardPath
	req, err := http.NewRequestWithContext(attemptCtx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	// Ask for compressed rows explicitly: setting the header ourselves
	// disables the transport's transparent decompression, so the raw
	// byte count below measures what actually travelled.
	req.Header.Set("Accept-Encoding", "gzip")
	obs.Inject(sctx, req.Header)
	resp, err := c.opts.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("worker %s: %s: %s", addr, resp.Status, bytes.TrimSpace(msg))
	}
	cr := &countingReader{r: resp.Body}
	var payload io.Reader = cr
	if strings.Contains(resp.Header.Get("Content-Encoding"), "gzip") {
		gz, gerr := gzip.NewReader(cr)
		if gerr != nil {
			return cr.n, fmt.Errorf("worker %s: response: %w", addr, gerr)
		}
		defer gz.Close()
		payload = gz
	}
	var sr ShardResponse
	if err := json.NewDecoder(payload).Decode(&sr); err != nil {
		return cr.n, fmt.Errorf("worker %s: response: %w", addr, err)
	}
	if sr.Version != WireVersion {
		return cr.n, fmt.Errorf("worker %s: wire version %d, want %d", addr, sr.Version, WireVersion)
	}
	if len(sr.Rows) != t.r.Count {
		return cr.n, fmt.Errorf("worker %s: %d rows for a shard of %d", addr, len(sr.Rows), t.r.Count)
	}
	rows := make([]campaign.ScenarioResult, len(sr.Rows))
	for i := range sr.Rows {
		row, err := sr.Rows[i].Result()
		if err != nil {
			return cr.n, fmt.Errorf("worker %s: %w", addr, err)
		}
		if row.Index != t.r.Start+i {
			return cr.n, fmt.Errorf("worker %s: row %d has index %d, want %d",
				addr, i, row.Index, t.r.Start+i)
		}
		rows[i] = row
	}
	partial, err := scenario.ParsePartial(sr.Partial)
	if err != nil {
		return cr.n, fmt.Errorf("worker %s: %w", addr, err)
	}
	if err := c.job.InstallShard(rows, partial); err != nil {
		return cr.n, err
	}
	obs.TraceFrom(ctx).ImportWire(sp.ID(), sr.Spans)
	return cr.n, nil
}
