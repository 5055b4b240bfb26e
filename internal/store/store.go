// Package store is the per-tenant durability engine under the serve
// layer: an append-only write-ahead log plus periodic compacted snapshots
// per tenant, with replay-on-boot recovery, so a tenant's privacy-budget
// spend — the one number that must never regress — survives process
// restarts and crashes.
//
// Why this exists: a DP budget is a *lifetime* total. An in-memory ledger
// silently refills on every restart, which voids the composed (ε, δ)
// guarantee — an adversary who can crash the process gets unbounded
// releases. The store makes the ledger the most durable thing in the
// system.
//
// # On-disk layout
//
//	<dir>/<tenant-id>/wal.log          append-only active tail
//	<dir>/<tenant-id>/wal.%09d.seg     sealed immutable WAL segments
//	<dir>/<tenant-id>/snapshot.json    last compacted full state
//
// Each WAL record is one line: a CRC32 (IEEE) of the JSON body in fixed
// hex, a space, the JSON body, a newline. Sequence numbers are strictly
// increasing per tenant and never reset, including across snapshot
// rotations and segment seals. The tail is the only file ever appended
// to; sealing renames it into an immutable segment (named by the last
// seq it contains) and reopens a fresh tail, so compaction can merge
// snapshot + sealed segments into a new snapshot entirely off the hot
// path (see compact.go) — the appender never waits on snapshot I/O.
//
// # Durability classes
//
// Records are not all equally precious, and the fsync policy encodes the
// privacy invariant "spend is never under-counted":
//
//   - Tenant creation and table DDL are synced before the call returns —
//     an acknowledged tenant or table always recovers.
//   - Ledger deductions and audit records go through the tenant log's
//     group committer (CommitCharge; see commit.go): every entry parked
//     on the barrier is written into ONE batch record, flushed and
//     fsynced before any of their calls returns. The serve layer commits
//     each release's deduction and audit record as one entry *before*
//     the mechanism's answer leaves the process, so every answered
//     release is on disk, audited. The single-line
//     framing makes a crash tear the batch atomically: recovery drops all
//     of an unacked batch or none of it, never a prefix. Because the WAL
//     is a single sequential stream, a batch's fsync also hardens every
//     row batch buffered before it.
//   - Row batches (AppendRows) are buffered without fsync: losing the
//     last moments of ingestion on a crash costs utility, never privacy.
//
// Snapshots come from one writer, Compact, which replays the sealed WAL
// segments: the WAL is the only source of truth, and a snapshot is a
// function of it, never a capture of live memory.
//
// # Recovery
//
// One reader, readSealed, loads a tenant's sealed history for both
// Recover and Compact: the snapshot (the replay floor), then the sealed
// segments, replaying records with seq > snapshot seq — so a crash
// between publishing a snapshot and deleting the segments it covers
// merely skips records the snapshot already contains, and replaying the
// same log twice converges on the same state (idempotence). Sealed
// segments were fsynced whole, so any damage in one, like a corrupt
// snapshot, fails loudly: silently ignoring it would refill the budget.
// Recover then replays the active tail, where a torn or corrupt line
// ends replay at the last intact record and the file is truncated
// there: the only records that can live past a durably-recorded
// (fsynced) deduction are ones that were never acknowledged, so a torn
// tail can drop trailing data rows but never an answered deduction —
// post-restart spend >= pre-crash acknowledged spend, always. Every
// CRC-framed line, WAL or audit, is written by writeFrame and read
// through frames.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"iter"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dp"
	"repro/internal/dpsql"
	"repro/internal/obs"
)

// Store errors.
var (
	// ErrBadTenantID reports a tenant id unusable as a directory name.
	ErrBadTenantID = errors.New("store: tenant id must be a plain path component")
	// ErrTenantExists reports a durable tenant that already exists.
	ErrTenantExists = errors.New("store: tenant already exists")
	// ErrLogBroken reports a WAL whose last append failed; the log is
	// fail-stop from then on so a partially-written record can never be
	// followed by a good one (the replay prefix property).
	ErrLogBroken = errors.New("store: write-ahead log broken by an earlier write error")
	// ErrCorruptSnapshot reports an unreadable snapshot file. Recovery
	// fails loudly rather than refilling the tenant's budget.
	ErrCorruptSnapshot = errors.New("store: corrupt snapshot")
	// ErrCorruptWAL reports damage that cannot be a torn tail: intact
	// records exist AFTER the damaged region, which a crash mid-append
	// cannot produce ahead of an fsync barrier — truncating there could
	// silently drop acknowledged deductions, so recovery refuses instead
	// (availability traded for the never-refill invariant).
	ErrCorruptWAL = errors.New("store: corrupt wal (damage before intact records)")
	// ErrLocked reports a data directory already owned by a live process.
	// Two writers interleaving one WAL would fabricate seq regressions
	// that the next recovery truncates — dropping fsynced deductions — so
	// exclusivity is part of the durability contract.
	ErrLocked = errors.New("store: data dir locked by another process")
)

// Record types.
const (
	recCreate = "create" // tenant creation: Config
	recTable  = "table"  // table DDL: Table (schema only)
	recRows   = "rows"   // ingestion batch: RowsTable + Rows
	recDeduct = "deduct" // ledger deduction: Cost (written before group commit; replayed only)
	recBatch  = "batch"  // group-commit batch: Costs + Audits, one fsync
)

// walBufSize is the WAL writer's buffer; row batches accumulate here
// between fsyncs.
const walBufSize = 64 << 10

const (
	walName  = "wal.log"
	snapName = "snapshot.json"
)

// TenantConfig is the durable tenant-creation parameters — enough to
// rebuild the composition backend when no snapshot exists yet. Shards is
// the tenant's table partition count (0 means 1 — the pre-shard encoding,
// so directories written before sharding recover as single-shard
// tenants). Orders is the Rényi order grid of an rdp tenant (empty means
// the default grid, which also keeps pre-rdp directories decoding
// unchanged).
type TenantConfig struct {
	Epsilon       float64   `json:"epsilon"`
	Accounting    string    `json:"accounting"`
	Delta         float64   `json:"delta,omitempty"`
	WindowSeconds float64   `json:"window_seconds,omitempty"`
	Shards        int       `json:"shards,omitempty"`
	Orders        []float64 `json:"orders,omitempty"`
}

// TenantSnapshot is a compacted full tenant state: creation config,
// ledger state (native-unit spend), and every table with its rows. Seq is
// the last WAL record whose effects the snapshot includes; replay skips
// records at or below it.
type TenantSnapshot struct {
	Seq    uint64             `json:"seq"`
	Config TenantConfig       `json:"config"`
	Ledger dp.LedgerState     `json:"ledger"`
	Tables []dpsql.TableState `json:"tables,omitempty"`
}

// record is one WAL line's JSON body. Rows records carry no placement:
// the importer routes every row by user-id hash. Decoding is lenient, so
// the "shard" tag older logs put on rows records is ignored.
type record struct {
	Seq       uint64            `json:"seq"`
	Type      string            `json:"type"`
	Config    *TenantConfig     `json:"config,omitempty"`
	Table     *dpsql.TableState `json:"table,omitempty"`
	Rows      [][]dpsql.Value   `json:"rows,omitempty"`
	RowsTable string            `json:"rows_table,omitempty"`
	Cost      *dp.Cost          `json:"cost,omitempty"`
	// Costs and Audits are a group-commit batch's payload: every
	// deduction and audit record acked by one shared fsync, framed as a
	// single CRC'd line so a crash tears the batch atomically — recovery
	// drops all of it or none of it, never a prefix.
	Costs  []dp.Cost     `json:"costs,omitempty"`
	Audits []AuditRecord `json:"audits,omitempty"`
}

// writeFrame writes body as one CRC-framed line, "crc32hex <body>\n" —
// the WAL's and the audit log's shared framing — and reports the bytes
// written.
func writeFrame(w io.Writer, body []byte) (int, error) {
	return fmt.Fprintf(w, "%08x %s\n", crc32.ChecksumIEEE(body), body)
}

// checkLine validates one CRC-framed line, returning its body with the
// checksum verified, or ok=false on any damage (short line, bad hex,
// checksum mismatch).
func checkLine(line []byte) ([]byte, bool) {
	// "xxxxxxxx " + "{}" + "\n" is the minimum.
	if len(line) < 12 || line[8] != ' ' || line[len(line)-1] != '\n' {
		return nil, false
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return nil, false
	}
	body := line[9 : len(line)-1]
	if crc32.ChecksumIEEE(body) != uint32(want) {
		return nil, false
	}
	return body, true
}

// frame is one newline-terminated line of a CRC-framed file.
type frame struct {
	off, end int    // the line's byte range, newline included
	body     []byte // the checksum-verified body; nil when the line is damaged
}

// record decodes a WAL frame, reporting ok=false for a damaged line or
// bad JSON.
func (fr frame) record() (record, bool) {
	var r record
	if fr.body == nil || json.Unmarshal(fr.body, &r) != nil {
		return r, false
	}
	return r, true
}

// frames walks data's newline-terminated lines in order — the one line
// walk over every CRC-framed file. A final line without its newline (a
// torn append) is not yielded; a caller that must refuse one compares
// the last frame's end with len(data).
func frames(data []byte) iter.Seq[frame] {
	return func(yield func(frame) bool) {
		for off := 0; off < len(data); {
			nl := bytes.IndexByte(data[off:], '\n')
			if nl < 0 {
				return
			}
			end := off + nl + 1
			body, _ := checkLine(data[off:end])
			if !yield(frame{off: off, end: end, body: body}) {
				return
			}
			off = end
		}
	}
}

// Metrics is the store's optional telemetry surface: the serve layer
// registers these instruments on its registry and installs them with
// SetMetrics before recovery; a nil Metrics (or any nil field) records
// nothing. Latencies are in seconds on obs.LatencyBuckets.
type Metrics struct {
	// FsyncSeconds observes every WAL flush+fsync (the release path's
	// durability barrier: one per commit batch, plus DDL records and
	// seals).
	FsyncSeconds *obs.Histogram
	// CompactionSeconds observes Compact end to end (seal, segment
	// replay, snapshot publish, segment deletion) — the one snapshot
	// writer, which runs concurrently with releases.
	CompactionSeconds *obs.Histogram
	// WALRecords and WALBytes count appended records and their encoded
	// bytes (CRC prefix and newline included) across every tenant log.
	WALRecords *obs.Counter
	WALBytes   *obs.Counter
	// AuditFsyncSeconds observes audit-log hardenings, one per
	// compaction and close (audit durability rides the WAL batch
	// barrier). AuditRecords counts appended audit records.
	AuditFsyncSeconds *obs.Histogram
	AuditRecords      *obs.Counter
	// BatchSize observes the number of entries acked per group-commit
	// barrier — the batching efficiency of the shared fsync.
	BatchSize *obs.Histogram
}

// Store manages the durable state under one data directory.
type Store struct {
	dir string

	mu      sync.Mutex
	logs    map[string]*TenantLog
	metrics *Metrics
	// pendingAudits stashes audit records recovered from WAL batch
	// records, per tenant, until OpenAudit reconciles them into the
	// (buffered, possibly behind) audit file.
	pendingAudits map[string][]AuditRecord
}

// SetMetrics installs the telemetry instruments. Call it once, after
// Open and before Recover or the first CreateTenant — logs capture the
// pointer at construction.
func (s *Store) SetMetrics(m *Metrics) {
	s.mu.Lock()
	s.metrics = m
	s.mu.Unlock()
}

// TenantLog is one tenant's open write-ahead log. Appends are serialized
// by its mutex; deductions and audit records reach it through the log's
// group committer, which every log runs from construction to Close.
type TenantLog struct {
	id  string
	dir string

	mu        sync.Mutex
	f         *os.File
	w         *bufio.Writer
	seq       uint64       // last assigned sequence number (never resets)
	snapSeq   uint64       // seq covered by the on-disk snapshot
	tailStart uint64       // last seq NOT in the active tail (the seal point)
	pending   int          // records the on-disk snapshot does not cover
	broken    bool         // fail-stop after a write error
	segs      []walSegment // sealed immutable segments, ascending end seq

	// compactMu serializes compactions — each rewrites snapshot.json and
	// deletes covered segments. Lock order: compactMu before mu, never
	// the reverse.
	compactMu sync.Mutex

	met *Metrics        // telemetry instruments (nil records nothing)
	gc  *groupCommitter // the shared fsync barrier every deduction parks on

	auditMu sync.Mutex
	audit   *AuditLog // attached audit file riding the commit barrier
}

// attachAudit sets the audit file the committer writes audit lines into
// (buffered; their durable copy rides the batch WAL record, so one fsync
// covers both the deduction and its audit line) and Compact hardens
// before deleting segments.
func (tl *TenantLog) attachAudit(a *AuditLog) {
	tl.auditMu.Lock()
	tl.audit = a
	tl.auditMu.Unlock()
}

// attachedAudit reads the attached audit file, if any.
func (tl *TenantLog) attachedAudit() *AuditLog {
	tl.auditMu.Lock()
	defer tl.auditMu.Unlock()
	return tl.audit
}

// Open prepares a store rooted at dir, creating it if needed, and claims
// the directory's LOCK file with an exclusive flock: a different process
// already owning it is refused with ErrLocked instead of being allowed
// to interleave WAL appends (two writers would fabricate the seq
// regressions recovery truncates at, dropping fsynced deductions). The
// flock dies with the process, so a crash never wedges the directory;
// within one process an already-held lock is adopted, because the
// crash-recovery drills abandon a server and re-open the same directory.
// Adoption makes same-process exclusion the EMBEDDER'S contract: after a
// second Open on the same dir, the first store must never write again —
// two live same-process writers would interleave seqs and truncate each
// other's buffered tails into a WAL the next recovery refuses
// (ErrCorruptWAL).
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty data dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := claimLock(dir); err != nil {
		return nil, err
	}
	return &Store{dir: dir, logs: map[string]*TenantLog{}}, nil
}

// lockName is the flock-ed file claiming a data directory.
const lockName = "LOCK"

// heldLocks tracks the flocks this process holds, keyed by absolute data
// dir and refcounted per Store. flock ownership is per open file
// description, so a same-process re-open must adopt the existing hold
// instead of flocking a second descriptor (which would self-conflict) —
// and the refcount keeps one Store's Close from dropping the flock out
// from under another still-live Store on the same directory.
type dirLock struct {
	f    *os.File
	refs int
}

var (
	heldLocksMu sync.Mutex
	heldLocks   = map[string]*dirLock{}
)

// lockKey resolves dir to the registry key.
func lockKey(dir string) string {
	if abs, err := filepath.Abs(dir); err == nil {
		return abs
	}
	return dir
}

// claimLock takes (or adopts) the exclusive flock on dir's LOCK file.
// flock is atomic in the kernel, so there is no claim/steal race between
// processes — the loser gets EWOULDBLOCK no matter how the calls
// interleave — and it evaporates when the holder dies.
func claimLock(dir string) error {
	key := lockKey(dir)
	heldLocksMu.Lock()
	defer heldLocksMu.Unlock()
	if l, held := heldLocks[key]; held {
		l.refs++ // same-process re-open: adopt the existing hold
		return nil
	}
	f, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := flockExclusive(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("%w: %s", ErrLocked, dir)
	}
	heldLocks[key] = &dirLock{f: f, refs: 1}
	return nil
}

// releaseLock drops one reference on dir's flock; the flock itself is
// released only when the last same-process holder closes.
func releaseLock(dir string) {
	key := lockKey(dir)
	heldLocksMu.Lock()
	defer heldLocksMu.Unlock()
	l, held := heldLocks[key]
	if !held {
		return
	}
	if l.refs--; l.refs <= 0 {
		_ = l.f.Close() // closing the descriptor releases the flock
		delete(heldLocks, key)
	}
}

// Dir reports the data directory.
func (s *Store) Dir() string { return s.dir }

// CheckTenantID validates that id is usable as a directory name: a plain
// path component, not ".", "..", or anything containing a separator.
// Tenant ids become on-disk paths, so this is the traversal guard; the
// store's own lock file name is reserved too (a tenant named LOCK would
// collide with it and 409 forever).
func CheckTenantID(id string) error {
	if id == "" || id == "." || id == ".." ||
		strings.ContainsAny(id, `/\`) || filepath.Base(id) != id ||
		strings.EqualFold(id, lockName) {
		return fmt.Errorf("%w: got %q", ErrBadTenantID, id)
	}
	return nil
}

// CreateTenant establishes a tenant's durable presence: its directory and
// a WAL whose first record is the creation config, synced before return —
// an acknowledged tenant always recovers.
func (s *Store) CreateTenant(id string, cfg TenantConfig) (*TenantLog, error) {
	if err := CheckTenantID(id); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.logs[id]; dup {
		return nil, fmt.Errorf("%w: %q", ErrTenantExists, id)
	}
	dir := filepath.Join(s.dir, id)
	if err := os.Mkdir(dir, 0o755); err != nil {
		// An existing EMPTY directory is adopted: it is the husk of a
		// creation that crashed between Mkdir and the WAL becoming
		// durable (recovery leaves empty directories alone because they
		// are indistinguishable from an operator's), and refusing it
		// would wedge the id into 409 forever.
		if !os.IsExist(err) {
			return nil, fmt.Errorf("store: %w", err)
		}
		if entries, rerr := os.ReadDir(dir); rerr != nil || len(entries) > 0 {
			return nil, fmt.Errorf("%w: %q", ErrTenantExists, id)
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, fmt.Errorf("store: %w", err)
	}
	tl := newTenantLog(id, dir, f, s.metrics, 0, 0, 0, nil)
	if err := tl.append(record{Type: recCreate, Config: &cfg}, true); err != nil {
		tl.stopCommitter()
		_ = f.Close()
		_ = os.RemoveAll(dir)
		return nil, err
	}
	// The directory entries must be durable before the tenant is
	// acknowledged: fsyncing wal.log's data does not persist its dir
	// entry, and an acknowledged tenant whose WAL vanishes on crash would
	// recover as never-created — a fresh full budget.
	if err := syncDir(dir); err != nil {
		tl.stopCommitter()
		_ = f.Close()
		_ = os.RemoveAll(dir)
		return nil, fmt.Errorf("store: syncing tenant dir: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		tl.stopCommitter()
		_ = f.Close()
		_ = os.RemoveAll(dir)
		return nil, fmt.Errorf("store: syncing data dir: %w", err)
	}
	s.logs[id] = tl
	return tl, nil
}

// Tenant returns the open log for id, if any.
func (s *Store) Tenant(id string) (*TenantLog, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tl, ok := s.logs[id]
	return tl, ok
}

// Close flushes and closes every tenant log and releases the directory
// lock.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for _, tl := range s.logs {
		if err := tl.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.logs = map[string]*TenantLog{}
	releaseLock(s.dir)
	return firstErr
}

// newTenantLog wraps an open tail file as a tenant log and starts its
// group committer. seq is the last assigned sequence number, snapSeq the
// snapshot's floor, tailStart the seal point and segs the sealed
// segments, ascending.
func newTenantLog(id, dir string, f *os.File, met *Metrics, seq, snapSeq, tailStart uint64, segs []walSegment) *TenantLog {
	tl := &TenantLog{
		id:        id,
		dir:       dir,
		f:         f,
		w:         bufio.NewWriterSize(f, walBufSize),
		seq:       seq,
		snapSeq:   snapSeq,
		tailStart: tailStart,
		pending:   int(seq - snapSeq),
		segs:      segs,
		met:       met,
	}
	tl.startCommitter()
	return tl
}

// ID reports the tenant id the log belongs to.
func (tl *TenantLog) ID() string { return tl.id }

// append encodes one record under the log's mutex; sync additionally
// flushes the buffer and fsyncs the file. Any write error makes the log
// fail-stop (ErrLogBroken): a torn record must never be followed by an
// intact one, or replay would stop at the tear and silently drop it.
func (tl *TenantLog) append(rec record, sync bool) error {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.appendLocked(rec, sync)
}

func (tl *TenantLog) appendLocked(rec record, sync bool) error {
	if tl.broken || tl.f == nil {
		return ErrLogBroken
	}
	tl.seq++
	rec.Seq = tl.seq
	body, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encoding record: %w", err)
	}
	n, err := writeFrame(tl.w, body)
	if err != nil {
		tl.broken = true
		return fmt.Errorf("store: appending record: %w", err)
	}
	if m := tl.met; m != nil {
		if m.WALRecords != nil {
			m.WALRecords.Inc()
		}
		if m.WALBytes != nil {
			m.WALBytes.Add(int64(n))
		}
	}
	tl.pending++
	if sync {
		if err := tl.flushLocked(); err != nil {
			return err
		}
	}
	return nil
}

// flushLocked drains the buffer and fsyncs. Callers hold tl.mu.
func (tl *TenantLog) flushLocked() error {
	t0 := time.Now()
	if err := tl.w.Flush(); err != nil {
		tl.broken = true
		return fmt.Errorf("store: flushing wal: %w", err)
	}
	if err := tl.f.Sync(); err != nil {
		tl.broken = true
		return fmt.Errorf("store: syncing wal: %w", err)
	}
	if m := tl.met; m != nil && m.FsyncSeconds != nil {
		m.FsyncSeconds.Observe(time.Since(t0).Seconds())
	}
	return nil
}

// AppendTable logs a table creation (schema only), synced before return.
func (tl *TenantLog) AppendTable(st dpsql.TableState) error {
	st.Rows = nil
	return tl.append(record{Type: recTable, Table: &st}, true)
}

// AppendRows logs an ingestion batch for one table. The int argument is
// unused — rows carry no placement, since replay routes each by user-id
// hash — and stays only so existing callers keep compiling. The record
// is buffered, not fsynced: a crash may lose trailing batches (utility),
// never a deduction (privacy). The next commit batch, seal, or Close
// hardens it.
func (tl *TenantLog) AppendRows(table string, _ int, rows [][]dpsql.Value) error {
	if len(rows) == 0 {
		return nil
	}
	return tl.append(record{Type: recRows, RowsTable: table, Rows: rows}, false)
}

// RecordsSinceSnapshot reports how many WAL records the current snapshot
// does not cover — the compaction trigger the serve layer polls.
func (tl *TenantLog) RecordsSinceSnapshot() int {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.pending
}

// Close drains the group committer (parked entries are committed, late
// submissions refused), then flushes, fsyncs, and closes the log.
func (tl *TenantLog) Close() error {
	// The committer appends under tl.mu, so it must be fully stopped
	// before the lock is taken — a drain-under-lock would deadlock.
	tl.stopCommitter()
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if tl.f == nil {
		return nil
	}
	flushErr := error(nil)
	if !tl.broken {
		flushErr = tl.flushLocked()
	}
	closeErr := tl.f.Close()
	tl.f = nil
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// syncDir fsyncs a directory so entry creation/rename is durable. The
// tenant-creation path refuses the creation on failure (an acknowledged
// tenant whose directory entry was never durable could vanish on crash
// and recover with a fresh budget); compaction gates segment deletion on
// it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
