package server

import (
	"io"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/wal"
)

// writeWALMetrics appends the daemon's durability families to a
// /metrics response, after the engine's own exposition. Everything is
// per shard (shard == tenant), matching the engine's label scheme.
func (s *Server) writeWALMetrics(w io.Writer) {
	x := metrics.NewWriter(w)
	x.Header("treecache_durable_checkpoints_total", "counter",
		"Durably committed checkpoints since boot (each truncates the WALs).")
	x.Int("treecache_durable_checkpoints_total", nil, s.ckpts.Load())
	if s.wals == nil {
		return
	}
	x.Header("treecache_wal_records_total", "counter",
		"WAL records appended since boot.")
	x.Header("treecache_wal_bytes_total", "counter",
		"WAL bytes written since boot, record headers included.")
	x.Header("treecache_wal_fsyncs_total", "counter",
		"Group-commit fsyncs completed; each may cover many records.")
	x.Header("treecache_wal_fsync_errors_total", "counter",
		"Failed fsyncs; any failure poisons the shard's log until restart.")
	x.Header("treecache_wal_size_bytes", "gauge",
		"Current WAL file size (falls to zero at each checkpoint).")
	x.Header("treecache_wal_recovered_records", "gauge",
		"Valid records found in the log at the last startup.")
	x.Header("treecache_wal_replayed_records", "gauge",
		"Records the last startup replayed into the engine (recovered minus checkpoint-superseded duplicates).")
	x.Header("treecache_wal_truncated_bytes", "gauge",
		"Torn/corrupt tail bytes the last startup truncated away.")
	stats := make([]struct {
		labels []metrics.Label
		st     walStats
	}, len(s.wals))
	for i, l := range s.wals {
		st := l.Stats()
		labels := []metrics.Label{{Key: "shard", Value: strconv.Itoa(i)}}
		stats[i].labels = labels
		stats[i].st = walStats{st: st, replayed: s.replayed[i]}
		x.Int("treecache_wal_records_total", labels, st.Records)
		x.Int("treecache_wal_bytes_total", labels, st.Bytes)
		x.Int("treecache_wal_fsyncs_total", labels, st.Syncs)
		x.Int("treecache_wal_fsync_errors_total", labels, st.SyncErrs)
		x.Int("treecache_wal_size_bytes", labels, st.Size)
		x.Int("treecache_wal_recovered_records", labels, st.Recovered)
		x.Int("treecache_wal_replayed_records", labels, s.replayed[i])
		x.Int("treecache_wal_truncated_bytes", labels, st.TruncatedBytes)
	}
	x.Header("treecache_wal_fsync_latency_ns", "histogram",
		"Wall time of each group-commit fsync, nanoseconds.")
	for i := range stats {
		x.Histogram("treecache_wal_fsync_latency_ns", stats[i].labels, &stats[i].st.st.SyncLatency)
	}
	x.Header("treecache_wal_fsync_latency_ns_quantile", "gauge",
		"Group-commit fsync latency quantiles, nanoseconds.")
	for i := range stats {
		x.Quantiles("treecache_wal_fsync_latency_ns_quantile", stats[i].labels,
			&stats[i].st.st.SyncLatency, 0.5, 0.99)
	}
}

// walStats pairs one shard's WAL counters with its replay count so the
// exposition loop above reads each log's stats exactly once.
type walStats struct {
	st       wal.Stats
	replayed int64
}
