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

// DefaultPipelineDepth is the number of shards in flight to one
// worker: the coordinator sends a worker its next shard only once the
// previous one is installed or requeued.
const DefaultPipelineDepth = 1

// Options parameterises a distributed campaign run.
type Options struct {
	// Workers are the base URLs of the shard workers
	// (e.g. http://127.0.0.1:9101). At least one is required.
	Workers []string
	// ShardSize bounds scenarios per shard (<= 0 selects
	// campaign.DefaultShardSize; at most campaign.MaxShardSize).
	ShardSize int
	// ShardTimeout is the per-attempt deadline of one shard (default
	// 2m). A timed-out attempt counts as a failure and the shard is
	// retried, possibly on another worker.
	ShardTimeout time.Duration
	// MaxAttempts bounds attempts per shard before the campaign fails
	// (default 3).
	MaxAttempts int
	// DropAfter is how many consecutive failures retire a worker
	// (default 3). The shard it failed last is requeued for the
	// survivors.
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
	// EventShardAbandoned fires when a cancelled run abandons an attempt
	// in flight. The shard goes back to the queue, so a resumed run
	// still sees it pending; the attempt is neither a failure nor a
	// retry.
	EventShardAbandoned EventType = "shard_abandoned"
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
	// ElapsedNS is the attempt's wall-clock duration, set on shard_done,
	// shard_failed and shard_abandoned events.
	ElapsedNS int64 `json:"elapsed_ns,omitempty"`
	// Bytes is the response body size as it travelled (post-compression),
	// set on shard_done events.
	Bytes int64 `json:"bytes,omitempty"`
}

// Stats folds coordinator events; Add is the only code that counts
// them. RunStats returns the fold of its run, and a caller that passes
// OnEvent can fold the same events into a Stats of its own (the
// service keeps one per campaign job and one for its symtago_shard_*
// families).
type Stats struct {
	// Dispatched counts attempts handed to workers; Redispatched counts
	// those after a shard's first attempt.
	Dispatched, Redispatched int
	// Shards counts installed shards; Retries counts failed attempts;
	// Abandoned counts attempts a cancelled run gave up on;
	// DroppedWorkers counts retired workers.
	Shards, Retries, Abandoned, DroppedWorkers int
	// BytesOnWire totals shard response bodies as they travelled
	// (post-compression).
	BytesOnWire int64
	// Latency sums the attempt durations of installed shards.
	Latency time.Duration
}

// Add folds one coordinator event into the counts.
func (s *Stats) Add(e Event) {
	switch e.Type {
	case EventDispatch:
		s.Dispatched++
		if e.Attempt > 1 {
			s.Redispatched++
		}
	case EventShardDone:
		s.Shards++
		s.BytesOnWire += e.Bytes
		s.Latency += time.Duration(e.ElapsedNS)
	case EventShardFailed:
		s.Retries++
	case EventShardAbandoned:
		s.Abandoned++
	case EventWorkerDropped:
		s.DroppedWorkers++
	}
}

// InFlight counts dispatched attempts that have not ended: every
// attempt ends installed, failed or abandoned, so in flight is
// dispatched - done - failed - abandoned, at most one per live worker,
// and zero once a run has returned.
func (s Stats) InFlight() int { return s.Dispatched - s.Shards - s.Retries - s.Abandoned }

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
	cancel    context.CancelFunc

	// mu serialises OnEvent calls and guards stats and fatalErr, the
	// first unrecoverable failure (which also cancels the run).
	mu       sync.Mutex
	stats    Stats
	fatalErr error
}

// RunStats executes the job's pending scenarios over the workers,
// folds the final report and returns the run statistics (valid even
// when the run fails). The report is byte-identical to a local
// (*campaign.Job).Run for any worker set, shard size or failure
// schedule: rows are installed by scenario index and the fold is the
// same serial aggregate. The coordinator ships only (spec, range) per
// shard and folds the workers' partial fingerprints — the corpus is
// never materialized on this side. RunStats fails when a shard
// exhausts MaxAttempts, when every worker has been dropped with shards
// still pending, or when ctx is cancelled; the job keeps the rows
// installed so far, so a later run — local or distributed — resumes
// from the pending set.
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

	// Every worker loop has returned, so stats and fatalErr are final.
	switch {
	case c.fatalErr != nil:
		return nil, c.stats, c.fatalErr
	case ctx.Err() != nil:
		return nil, c.stats, ctx.Err()
	case c.remaining.Load() > 0:
		return nil, c.stats, fmt.Errorf("distrib: all %d workers dropped with %d shards pending",
			len(opts.Workers), c.remaining.Load())
	}
	rep, err := job.Run(ctx)
	return rep, c.stats, err
}

// workerLoop feeds one worker one shard at a time: it takes a shard,
// runs it, and installs or requeues it before it takes the next.
// DropAfter consecutive failures retire the worker; the shard it failed
// last is already requeued for the survivors.
func (c *coordinator) workerLoop(ctx context.Context, addr string) {
	consecutive := 0
	for {
		var t *shardTask
		select {
		case <-ctx.Done():
			return
		case <-c.allDone:
			return
		case t = <-c.queue:
		}
		c.emit(Event{Type: EventDispatch, Worker: addr, Shard: t.r, Attempt: t.attempts + 1})
		t0 := time.Now()
		wire, err := c.runShard(ctx, addr, t)
		elapsed := time.Since(t0)
		if err == nil {
			consecutive = 0
			c.emit(Event{Type: EventShardDone, Worker: addr, Shard: t.r,
				Attempt: t.attempts + 1, ElapsedNS: int64(elapsed), Bytes: wire})
			if c.remaining.Add(-1) == 0 {
				close(c.allDone)
			}
			continue
		}
		if ctx.Err() != nil {
			// Cancelled mid-flight: not the worker's fault. Requeue so a
			// restarted run still sees the shard as pending.
			c.emit(Event{Type: EventShardAbandoned, Worker: addr, Shard: t.r,
				Attempt: t.attempts + 1, ElapsedNS: int64(elapsed)})
			c.queue <- t
			return
		}
		t.attempts++
		c.emit(Event{Type: EventShardFailed, Worker: addr, Shard: t.r,
			Attempt: t.attempts, Err: err.Error(), ElapsedNS: int64(elapsed)})
		if t.attempts >= c.opts.MaxAttempts {
			c.fail(fmt.Errorf("distrib: shard [%d,%d) failed %d times, last on %s: %w",
				t.r.Start, t.r.End(), t.attempts, addr, err))
			return
		}
		c.queue <- t
		if consecutive++; consecutive >= c.opts.DropAfter {
			c.emit(Event{Type: EventWorkerDropped, Worker: addr, Shard: t.r,
				Attempt: t.attempts, Err: err.Error()})
			return
		}
	}
}

func (c *coordinator) fail(err error) {
	c.mu.Lock()
	if c.fatalErr == nil {
		c.fatalErr = err
	}
	c.mu.Unlock()
	c.cancel()
}

// emit folds e into the run statistics and passes it to OnEvent.
func (c *coordinator) emit(e Event) {
	e.Done, e.Total = c.job.Progress()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Add(e)
	if c.opts.OnEvent != nil {
		c.opts.OnEvent(e)
	}
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
