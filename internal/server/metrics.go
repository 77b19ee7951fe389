package server

import (
	"io"

	"repro/internal/metrics"
)

// writeWALMetrics appends the daemon's durability families to a
// /metrics response, after the engine's own exposition. The WAL
// families carry one series each, labelled with the log's file name.
func (s *Server) writeWALMetrics(w io.Writer) {
	x := metrics.NewWriter(w)
	x.Header("treecache_durable_checkpoints_total", "counter",
		"Durably committed checkpoints since boot (each truncates the WAL).")
	x.Int("treecache_durable_checkpoints_total", nil, s.ckpts.Load())
	x.Header("treecache_durable_checkpoint_errors_total", "counter",
		"Failed periodic background checkpoints since boot (capture, file write or WAL truncation); each leaves the previous checkpoint and the full WAL in force.")
	x.Int("treecache_durable_checkpoint_errors_total", nil, s.ckptErrs.Load())
	if s.wal == nil {
		return
	}
	st := s.wal.Stats()
	var replayed int64
	for _, n := range s.replayed {
		replayed += n
	}
	labels := []metrics.Label{{Key: "log", Value: walFile}}
	for _, f := range []struct {
		name, typ, help string
		v               int64
	}{
		{"treecache_wal_records_total", "counter", "WAL records appended since boot.", st.Records},
		{"treecache_wal_bytes_total", "counter", "WAL bytes written since boot, record headers included.", st.Bytes},
		{"treecache_wal_fsyncs_total", "counter", "Group-commit fsyncs completed; each may cover many records, of any tenants.", st.Syncs},
		{"treecache_wal_fsync_errors_total", "counter", "Failed fsyncs; any failure poisons the log, failing every tenant's admissions until restart.", st.SyncErrs},
		{"treecache_wal_size_bytes", "gauge", "Current WAL file size (falls to zero at each checkpoint).", st.Size},
		{"treecache_wal_recovered_records", "gauge", "Valid records found in the log at the last startup.", st.Recovered},
		{"treecache_wal_replayed_records", "gauge", "Records the last startup replayed into the engine (checkpoint-superseded duplicates excluded).", replayed},
		{"treecache_wal_truncated_bytes", "gauge", "Torn/corrupt tail bytes the last startup truncated away.", st.TruncatedBytes},
	} {
		x.Header(f.name, f.typ, f.help)
		x.Int(f.name, labels, f.v)
	}
	x.Header("treecache_wal_fsync_latency_ns", "histogram",
		"Wall time of each group-commit fsync, nanoseconds.")
	x.Histogram("treecache_wal_fsync_latency_ns", labels, &st.SyncLatency)
	x.Header("treecache_wal_fsync_latency_ns_quantile", "gauge",
		"Group-commit fsync latency quantiles, nanoseconds.")
	x.Quantiles("treecache_wal_fsync_latency_ns_quantile", labels, &st.SyncLatency, 0.5, 0.99)
}
