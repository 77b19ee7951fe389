// Package wal implements the durable write-ahead log behind
// treecached's ack-is-a-durability-promise contract. The daemon keeps
// one log for every tenant: it appends each admitted frame as a
// checksummed record and withholds the client's Ack until the record
// is covered by an fsync, so one group-commit fsync covers every
// tenant's frames in flight. Recovery after a hard crash (kill -9,
// OOM-kill, power loss) replays the log tail on top of the last
// checkpoint, so an acknowledged batch is never lost.
//
// Record format, repeated back to back in one append-only file:
//
//	length uint32  payload length, little-endian
//	crc32  uint32  IEEE CRC over the payload
//	payload [length]byte
//
// Durability model:
//
//   - Append writes the record into the OS file (page cache) and
//     returns its LSN (1-based record index). The record is NOT yet
//     durable.
//   - A single background syncer goroutine runs group commit: the
//     first append after an idle period opens a commit window of
//     SyncInterval, then one fsync covers every record appended in the
//     window. Wait(lsn) blocks until an fsync covering the record
//     completes — that is the point after which the caller may
//     acknowledge.
//   - An fsync failure poisons the log: the failed range's durability
//     is unknown (the kernel may have dropped the dirty pages), so
//     every pending and future Wait/Append fails loudly instead of
//     pretending. A poisoned daemon keeps refusing writes, for every
//     tenant, until it is restarted and recovers from what actually
//     reached the disk.
//
// Recovery model (Open): the file is scanned record by record; the
// first record that is short, has an impossible length, or fails its
// CRC ends the valid prefix — everything from there on is a torn or
// corrupt tail (a crash mid-write(2)) and is truncated away, never a
// startup failure. Only the tail is ever dropped: the caller's
// sequence numbers inside the payloads detect (and reject) any claim
// of a mid-file gap.
//
// Checkpoint rotation (Reset): once a checkpoint durably supersedes
// every record in the log, Reset truncates the file to zero, bounding
// both the log size and the recovery replay time. The caller must
// quiesce appends around Reset (treecached holds its checkpoint lock).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/metrics"
)

// headerLen is the per-record header: u32 length + u32 CRC.
const headerLen = 8

// DefaultMaxRecord bounds one record's payload. It is deliberately a
// little above the wire protocol's DefaultMaxPayload so any admitted
// frame fits with its framing byte.
const DefaultMaxRecord = 1<<20 + 64

var (
	// ErrClosed reports an operation on a closed (or killed) log.
	ErrClosed = errors.New("wal: closed")
	// ErrTooLarge reports an Append beyond the record size limit.
	ErrTooLarge = errors.New("wal: record exceeds maximum size")
	// ErrPoisoned reports that a previous fsync failed: durability of
	// the tail is unknown, so the log refuses all further work.
	ErrPoisoned = errors.New("wal: poisoned by fsync failure")
)

// Options parameterises Open.
type Options struct {
	// SyncInterval is the group-commit window: the first append after
	// an idle period waits this long so one fsync can cover every
	// record admitted in the window, then syncs. Zero (or negative)
	// syncs as soon as the syncer wakes, which still coalesces appends
	// that race one fsync's duration.
	SyncInterval time.Duration
	// MaxRecord caps one record's payload (default DefaultMaxRecord).
	// Applied on Append and — as a corruption heuristic — on recovery:
	// a stored length beyond the cap ends the valid prefix.
	MaxRecord int
}

// Stats is a point-in-time snapshot of a log's counters.
type Stats struct {
	// Records and Bytes count appends by this process (records appended
	// and record bytes written, headers included).
	Records int64
	Bytes   int64
	// Syncs counts completed fsyncs; SyncErrs counts failed ones (any
	// failure poisons the log).
	Syncs    int64
	SyncErrs int64
	// Size is the current file size in bytes.
	Size int64
	// Recovered is how many valid records Open found; TruncatedBytes is
	// how many torn/corrupt tail bytes Open discarded.
	Recovered      int64
	TruncatedBytes int64
	// SyncLatency is the fsync wall-time histogram (group commit: one
	// sample may cover many records).
	SyncLatency metrics.Histogram
}

// Log is one append-only write-ahead log file. All methods are safe
// for concurrent use except Reset, which requires the caller to
// quiesce appends first.
type Log struct {
	path string
	opts Options

	mu   sync.Mutex
	cond *sync.Cond
	f    *os.File
	// appended/synced are 1-based record LSNs: appended is the last
	// record written into the OS, synced the last covered by a
	// completed fsync. Monotone across Reset (LSNs never reuse).
	appended uint64
	synced   uint64
	err      error // sticky poison error (fsync failure)
	closed   bool
	killed   bool // crash simulation: skip the final sync on shutdown

	records, bytes, syncs, syncErrs int64
	size                            int64
	recovered, truncatedBytes       int64
	lat                             metrics.Histogram

	wake chan struct{}
	stop chan struct{}
	done chan struct{}
}

// Open opens (creating if absent) the log at path, recovers its valid
// record prefix and truncates any torn or corrupt tail. It returns the
// recovered record payloads in append order; the caller replays them
// and may discard the slice. The parent directory is fsynced so the
// file's existence itself is crash-durable.
func Open(path string, opts Options) (*Log, [][]byte, error) {
	if opts.MaxRecord <= 0 {
		opts.MaxRecord = DefaultMaxRecord
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if err := SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	recs, valid := scan(data, opts.MaxRecord)
	if valid < int64(len(data)) {
		// Torn or corrupt tail: truncate to the last valid record and
		// make the truncation itself durable before trusting the log.
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: sync after truncate: %w", err)
		}
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	l := &Log{
		path:           path,
		opts:           opts,
		f:              f,
		size:           valid,
		recovered:      int64(len(recs)),
		truncatedBytes: int64(len(data)) - valid,
		wake:           make(chan struct{}, 1),
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	go l.syncLoop()
	return l, recs, nil
}

// scan parses the valid record prefix of data: it returns the decoded
// payloads and the byte offset where the valid prefix ends (the first
// short header, impossible length, short payload, or CRC mismatch).
func scan(data []byte, maxRecord int) (recs [][]byte, valid int64) {
	off := 0
	for {
		if len(data)-off < headerLen {
			return recs, int64(off)
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxRecord || n > len(data)-off-headerLen {
			return recs, int64(off)
		}
		payload := data[off+headerLen : off+headerLen+n]
		if crc32.ChecksumIEEE(payload) != crc {
			return recs, int64(off)
		}
		recs = append(recs, append([]byte(nil), payload...))
		off += headerLen + n
	}
}

// Read returns the valid record prefix of the log at path without
// opening it for append: no syncer starts and a torn tail stays on
// disk. treecached replays logs it no longer writes with it.
func Read(path string, maxRecord int) ([][]byte, error) {
	if maxRecord <= 0 {
		maxRecord = DefaultMaxRecord
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	recs, _ := scan(data, maxRecord)
	return recs, nil
}

// AppendRecord appends one encoded record (header + payload) to dst —
// the codec shared by Append and the tests/fuzzer that build synthetic
// log images.
func AppendRecord(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// Append writes one record into the OS file and returns its LSN. The
// record is not durable yet: call Wait(lsn) (or Commit) before
// acknowledging it to anyone.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) > l.opts.MaxRecord {
		return 0, fmt.Errorf("%w: %d > %d bytes", ErrTooLarge, len(payload), l.opts.MaxRecord)
	}
	rec := AppendRecord(make([]byte, 0, headerLen+len(payload)), payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	if _, err := l.f.Write(rec); err != nil {
		// A failed write leaves the file in an unknown partial state;
		// poison like an fsync failure.
		l.err = fmt.Errorf("%w: %v", ErrPoisoned, err)
		l.cond.Broadcast()
		return 0, l.err
	}
	l.appended++
	l.records++
	l.bytes += int64(len(rec))
	l.size += int64(len(rec))
	select {
	case l.wake <- struct{}{}:
	default:
	}
	return l.appended, nil
}

// Wait blocks until an fsync covering LSN lsn completes, the log is
// poisoned, or it is closed. Returning nil is the durability promise.
func (l *Log) Wait(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.synced < lsn {
		if l.err != nil {
			return l.err
		}
		if l.closed {
			return ErrClosed
		}
		l.cond.Wait()
	}
	return l.err
}

// Commit is Append followed by Wait: it returns once the record is
// durable (or the log failed).
func (l *Log) Commit(payload []byte) error {
	lsn, err := l.Append(payload)
	if err != nil {
		return err
	}
	return l.Wait(lsn)
}

// Sync forces an fsync covering everything appended so far, bypassing
// the group-commit window.
func (l *Log) Sync() error {
	l.mu.Lock()
	err := l.syncLocked()
	l.mu.Unlock()
	return err
}

// syncLocked runs one fsync covering the current append frontier. It
// temporarily drops the lock around the fsync itself so appends for
// the next window keep flowing. Called with l.mu held; returns with it
// held.
func (l *Log) syncLocked() error {
	if l.err != nil {
		return l.err
	}
	if l.closed && l.killed {
		return ErrClosed
	}
	target := l.appended
	if target == l.synced {
		return nil
	}
	l.mu.Unlock()
	start := time.Now()
	err := l.f.Sync()
	elapsed := time.Since(start).Nanoseconds()
	l.mu.Lock()
	l.lat.Record(elapsed)
	if err != nil {
		l.syncErrs++
		if l.err == nil {
			l.err = fmt.Errorf("%w: %v", ErrPoisoned, err)
		}
		l.cond.Broadcast()
		return l.err
	}
	l.syncs++
	if target > l.synced {
		l.synced = target
	}
	l.cond.Broadcast()
	return nil
}

// syncLoop is the group-commit syncer: woken by the first append after
// an idle period, it waits out the commit window so one fsync covers
// every record admitted inside it, then syncs and releases the
// waiters.
func (l *Log) syncLoop() {
	defer close(l.done)
	for {
		select {
		case <-l.stop:
			l.mu.Lock()
			if !l.killed {
				l.syncLocked()
			}
			l.mu.Unlock()
			return
		case <-l.wake:
			if l.opts.SyncInterval > 0 {
				timer := time.NewTimer(l.opts.SyncInterval)
				select {
				case <-timer.C:
				case <-l.stop:
					timer.Stop()
					l.mu.Lock()
					if !l.killed {
						l.syncLocked()
					}
					l.mu.Unlock()
					return
				}
			}
			l.mu.Lock()
			l.syncLocked()
			l.mu.Unlock()
		}
	}
}

// Reset truncates the log to empty after a checkpoint has durably
// superseded every record in it. The caller must guarantee no Append
// or Wait is in flight (treecached holds its checkpoint write lock,
// which excludes the whole admission path).
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	if _, err := l.f.Seek(0, 0); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("%w: %v", ErrPoisoned, err)
		return l.err
	}
	// Everything ever appended is superseded, so the sync frontier
	// catches up; LSNs stay monotone so late Waiters see success.
	l.synced = l.appended
	l.size = 0
	l.cond.Broadcast()
	return nil
}

// Close stops the syncer after one final fsync covering every appended
// record, then closes the file. Pending Waiters are released by that
// final sync.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stop)
	<-l.done
	l.mu.Lock()
	l.cond.Broadcast()
	err := l.f.Close()
	l.mu.Unlock()
	return err
}

// Kill closes the log abruptly, skipping the final fsync — the test
// hook that simulates a crash: whatever an earlier fsync covered stays
// durable, everything after it is at the mercy of the page cache.
// Pending Waiters fail with ErrClosed instead of gaining durability.
func (l *Log) Kill() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.killed = true
	l.cond.Broadcast()
	l.mu.Unlock()
	close(l.stop)
	<-l.done
	l.mu.Lock()
	l.f.Close()
	l.mu.Unlock()
}

// Err returns the sticky poison error (nil while the log is healthy).
// A poisoned log refuses all further appends; callers use this to
// fail admissions early instead of discovering the poison mid-write.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Records:        l.records,
		Bytes:          l.bytes,
		Syncs:          l.syncs,
		SyncErrs:       l.syncErrs,
		Size:           l.size,
		Recovered:      l.recovered,
		TruncatedBytes: l.truncatedBytes,
		SyncLatency:    l.lat,
	}
}

// Size returns the current file size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// SyncDir fsyncs a directory so a just-created (or just-renamed) entry
// in it survives a system crash.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
