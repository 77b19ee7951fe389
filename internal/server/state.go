package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/wal"
)

// State-directory layout. A checkpoint is ONE file, checkpoint.tcckpt,
// holding every shard's snapshot blob plus the sequence table (the
// per-tenant highest applied batch sequence number), taken at one
// engine-quiescent consistency point and committed by one atomic
// rename. Each blob is the engine's verified capture
// (engine.Checkpoint), never an unverified Snapshot. The single commit
// point is what makes WAL recovery sound: a crash mid-checkpoint
// leaves either the old file (old snapshots + old seqs + the full WAL
// to replay) or the new one (new snapshots + new seqs; stale WAL
// records are dropped as duplicates by the sequence table) — never
// shard snapshots from one checkpoint paired with a sequence table from
// another, which would double-apply replayed records against the
// cumulative cost ledger.
//
// File format:
//
//	magic   [6]byte  "TCCKPT"
//	version uint16   currently 1
//	crc32   uint32   IEEE CRC over the payload
//	payload varint shard count, then per shard varint blob length +
//	        blob; varint tenant count, then one varint lastSeq per
//	        tenant
//
// Writes go through writeFileDurable: temp file, fsync the temp,
// rename over the target, fsync the directory. Without the two fsyncs
// the rename is only atomic against process crashes, not system
// crashes — the journal can replay the rename before the data blocks
// reach the disk, leaving a zero-length or garbage "checkpoint".
//
// Next to the checkpoint lives the daemon's one write-ahead log,
// treecached.wal (see internal/wal), holding every tenant's admitted
// frames since the last checkpoint, interleaved in admission order;
// each record names its tenant. State dirs of the per-shard layout
// also hold shard-NNNN.wal, one log per tenant: recovery replays them
// before treecached.wal, and the next committed checkpoint deletes
// them.

const (
	ckptFile    = "checkpoint.tcckpt"
	ckptVersion = 1
	walFile     = "treecached.wal"
	// legacyWALGlob matches the logs of the per-shard layout.
	legacyWALGlob = "shard-*.wal"
)

var ckptMagic = [6]byte{'T', 'C', 'C', 'K', 'P', 'T'}

// errCkptFormat reports a corrupt checkpoint file.
var errCkptFormat = errors.New("server: malformed checkpoint")

// writeFileDurable writes data to path crash-durably: temp file, fsync
// the temp (data blocks reach disk before the rename can be
// journaled), atomic rename, fsync the parent directory (the rename
// itself reaches disk).
func writeFileDurable(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return wal.SyncDir(filepath.Dir(path))
}

// encodeCheckpoint serializes one checkpoint: every shard's snapshot
// blob plus the sequence table.
func encodeCheckpoint(blobs [][]byte, seqs []uint64) []byte {
	payload := binary.AppendUvarint(nil, uint64(len(blobs)))
	for _, b := range blobs {
		payload = binary.AppendUvarint(payload, uint64(len(b)))
		payload = append(payload, b...)
	}
	payload = binary.AppendUvarint(payload, uint64(len(seqs)))
	for _, s := range seqs {
		payload = binary.AppendUvarint(payload, s)
	}
	out := make([]byte, 0, 12+len(payload))
	out = append(out, ckptMagic[:]...)
	out = binary.LittleEndian.AppendUint16(out, ckptVersion)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// decodeCheckpoint parses and integrity-checks a checkpoint file.
func decodeCheckpoint(data []byte) (blobs [][]byte, seqs []uint64, err error) {
	if len(data) < 12 {
		return nil, nil, fmt.Errorf("%w: %d bytes", errCkptFormat, len(data))
	}
	if [6]byte(data[:6]) != ckptMagic {
		return nil, nil, fmt.Errorf("%w: bad magic", errCkptFormat)
	}
	if v := binary.LittleEndian.Uint16(data[6:8]); v != ckptVersion {
		return nil, nil, fmt.Errorf("%w: unsupported version %d", errCkptFormat, v)
	}
	payload := data[12:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[8:12]) {
		return nil, nil, fmt.Errorf("%w: checksum mismatch", errCkptFormat)
	}
	nb, k := binary.Uvarint(payload)
	if k <= 0 || nb > uint64(len(payload)) {
		return nil, nil, fmt.Errorf("%w: bad shard count", errCkptFormat)
	}
	payload = payload[k:]
	blobs = make([][]byte, nb)
	for i := range blobs {
		n, k := binary.Uvarint(payload)
		if k <= 0 || n > uint64(len(payload)-k) {
			return nil, nil, fmt.Errorf("%w: truncated shard %d blob", errCkptFormat, i)
		}
		payload = payload[k:]
		blobs[i] = payload[:n:n]
		payload = payload[n:]
	}
	ns, k := binary.Uvarint(payload)
	if k <= 0 || ns > uint64(len(payload)) {
		return nil, nil, fmt.Errorf("%w: bad tenant count", errCkptFormat)
	}
	payload = payload[k:]
	seqs = make([]uint64, ns)
	for i := range seqs {
		v, k := binary.Uvarint(payload)
		if k <= 0 {
			return nil, nil, fmt.Errorf("%w: truncated at tenant %d", errCkptFormat, i)
		}
		seqs[i] = v
		payload = payload[k:]
	}
	if len(payload) != 0 {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes", errCkptFormat, len(payload))
	}
	return blobs, seqs, nil
}

// loadCheckpoint reads the checkpoint from dir. A missing file means a
// fresh state directory (ok=false); a corrupt one is an error —
// failing loud beats silently re-serving acknowledged batches. Shard
// blobs and the sequence table are padded out to shards/tenants for
// fleets that grew since the checkpoint.
func loadCheckpoint(dir string, shards, tenants int) (blobs [][]byte, seqs []uint64, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, ckptFile))
	if errors.Is(err, os.ErrNotExist) {
		return make([][]byte, shards), make([]uint64, tenants), false, nil
	}
	if err != nil {
		return nil, nil, false, err
	}
	b, s, err := decodeCheckpoint(data)
	if err != nil {
		return nil, nil, false, err
	}
	if len(b) > shards || len(s) > tenants {
		return nil, nil, false, fmt.Errorf("%w: checkpoint has %d shards / %d tenants, configured %d / %d",
			errCkptFormat, len(b), len(s), shards, tenants)
	}
	blobs = make([][]byte, shards)
	copy(blobs, b)
	seqs = make([]uint64, tenants)
	copy(seqs, s)
	return blobs, seqs, true, nil
}
