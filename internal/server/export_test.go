package server

import "path/filepath"

// WriteCheckpoint commits a checkpoint file into dir the way the daemon
// does, for tests that build state directories by hand.
func WriteCheckpoint(dir string, blobs [][]byte, seqs []uint64) error {
	return writeFileDurable(filepath.Join(dir, ckptFile), encodeCheckpoint(blobs, seqs))
}
