package store

import (
	"sync"
	"time"

	"repro/internal/dp"
)

// The WAL group committer: concurrent releases park on a shared commit
// barrier instead of paying one fsync each. A committer goroutine drains
// the queue, writes every pending deduction and audit record as ONE
// batch WAL record, and a single flush+fsync acks the whole batch.
//
// Batching is adaptive without tuning: a release arriving on an idle
// committer commits alone immediately (no added latency), while releases
// arriving during an in-flight fsync accumulate and form the next batch
// — the natural group-commit rhythm, where the batch size tracks the
// offered concurrency.
//
// Every tenant log runs a committer, so this is the only commit path:
// submit returns only after the batch record holding the entry is
// flushed AND fsynced, so no answer is ever released ahead of its
// batch's barrier. Because the whole batch is one CRC-framed WAL line, a
// crash mid-write tears the batch as a unit — recovery's torn-tail
// truncation drops all of it or none of it, never a prefix, and nothing
// in a dropped batch was ever acknowledged.
//
// Audit piggyback: entries may carry an audit record instead of (or as
// well as) a cost. Audit lines are written to the tenant's audit file
// BUFFERED (no fsync) and a copy rides inside the same batch WAL record,
// so the single barrier fsync makes both the deduction and its audit
// line durable — "acknowledged implies audited" costs zero extra fsyncs.
// Recovery reconciles the buffered audit file against the WAL's batch
// copies (see OpenAudit), and Compact hardens the audit file before
// deleting the segments that hold those copies.

// GroupCommitOptions is empty: group commit has no settings. It and
// SetGroupCommit remain only so existing callers keep compiling.
type GroupCommitOptions struct{}

// SetGroupCommit is a no-op: every tenant log starts its committer.
func (s *Store) SetGroupCommit(GroupCommitOptions) {}

// maxBatch caps entries per batch record. The cap bounds the batch WAL
// line's size and the work a failed batch fsync refuses at once.
const maxBatch = 256

// commitEntry is one parked submission: a deduction, an audit record, or
// both. done closes when the entry's batch barrier cleared (or failed).
type commitEntry struct {
	cost      *dp.Cost
	audit     *AuditRecord
	submitted time.Time

	waited time.Duration // parked time before the batch started
	fsync  time.Duration // the shared batch append+flush+fsync
	err    error
	done   chan struct{}
}

// groupCommitter is one tenant log's commit barrier.
type groupCommitter struct {
	tl       *TenantLog
	maxBatch int // entries per batch: maxBatch, lowered by tests to churn batches

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*commitEntry
	closed bool

	exited chan struct{} // closed when the committer goroutine returns
}

// startCommitter attaches a running committer to the log. Called at
// TenantLog construction, before the log is shared.
func (tl *TenantLog) startCommitter() {
	g := &groupCommitter{tl: tl, maxBatch: maxBatch, exited: make(chan struct{})}
	g.cond = sync.NewCond(&g.mu)
	tl.gc = g
	go g.run()
}

// stopCommitter drains and stops the committer: queued entries are
// committed in one final batch, then the goroutine exits. Must be called
// WITHOUT tl.mu held (the committer takes tl.mu to append). Submissions
// arriving after the stop fail with ErrLogBroken.
func (tl *TenantLog) stopCommitter() {
	g := tl.gc
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		<-g.exited
		return
	}
	g.closed = true
	g.cond.Broadcast()
	g.mu.Unlock()
	<-g.exited
}

// CommitTimings is the durability cost breakdown of one committed entry:
// how long it was parked on the barrier (the group_commit_wait stage)
// and the shared batch append+flush+fsync (the wal_fsync stage). The
// serve layer records these as child spans under its deduct stage.
type CommitTimings struct {
	Waited time.Duration
	Fsync  time.Duration
}

// CommitDeduct durably records one ledger deduction through the group
// commit barrier: the call parks until a batch holding the deduction is
// flushed and fsynced, sharing the fsync with every other entry in the
// batch.
func (tl *TenantLog) CommitDeduct(c dp.Cost) (CommitTimings, error) {
	return tl.gc.submit(&c, nil)
}

// submit parks one entry on the barrier and waits for its batch.
func (g *groupCommitter) submit(c *dp.Cost, a *AuditRecord) (CommitTimings, error) {
	e := &commitEntry{cost: c, audit: a, submitted: time.Now(), done: make(chan struct{})}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return CommitTimings{}, ErrLogBroken
	}
	g.queue = append(g.queue, e)
	g.cond.Signal()
	g.mu.Unlock()
	<-e.done
	return CommitTimings{Waited: e.waited, Fsync: e.fsync}, e.err
}

// run is the committer loop: wait for entries, drain up to maxBatch,
// commit with one fsync, repeat. On close it drains whatever is queued
// into final batches before exiting.
func (g *groupCommitter) run() {
	defer close(g.exited)
	for {
		g.mu.Lock()
		for len(g.queue) == 0 && !g.closed {
			g.cond.Wait()
		}
		if len(g.queue) == 0 {
			g.mu.Unlock() // closed and drained
			return
		}
		n := len(g.queue)
		if n > g.maxBatch {
			n = g.maxBatch
		}
		batch := g.queue[:n:n]
		g.queue = g.queue[n:]
		if len(g.queue) == 0 {
			g.queue = nil // let the drained backlog's array be collected
		}
		g.mu.Unlock()
		g.commit(batch)
	}
}

// commit writes one batch: buffered audit lines first (their durable
// copy rides in the batch record), then the single batch WAL record,
// flushed and fsynced — one barrier for everything — then wakes every
// waiter with its verdict.
func (g *groupCommitter) commit(batch []*commitEntry) {
	start := time.Now()
	for _, e := range batch {
		e.waited = start.Sub(e.submitted)
	}
	var (
		costs  []dp.Cost
		audits []AuditRecord
	)
	audit := g.tl.attachedAudit()
	for _, e := range batch {
		if e.audit == nil {
			continue
		}
		if audit == nil {
			e.err = ErrLogBroken // no audit file attached to route into
			continue
		}
		// appendBuffered assigns the record's seq in barrier order and
		// writes the line WITHOUT fsync; the copy in the batch record is
		// what makes it durable. A failed audit write fails only this
		// entry — its in-memory charge (if any) stands, conservative.
		if err := audit.appendBuffered(e.audit); err != nil {
			e.err = err
			continue
		}
		audits = append(audits, *e.audit)
	}
	for _, e := range batch {
		if e.err == nil && e.cost != nil {
			costs = append(costs, *e.cost)
		}
	}
	var err error
	var barrier time.Duration
	if len(costs) > 0 || len(audits) > 0 {
		t0 := time.Now()
		err = g.tl.append(record{Type: recBatch, Costs: costs, Audits: audits}, true)
		barrier = time.Since(t0)
	}
	if m := g.tl.met; m != nil && m.BatchSize != nil {
		m.BatchSize.Observe(float64(len(batch)))
	}
	for _, e := range batch {
		if e.err == nil {
			e.err = err
			e.fsync = barrier
		}
		close(e.done)
	}
}
