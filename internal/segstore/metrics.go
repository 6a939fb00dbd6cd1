// Segment-store observability: the segstore_* counter catalogue,
// pre-registered at init so every /metrics scrape carries the full
// family set, and gated by cmd/vetmetrics like the engine and cluster
// catalogues (see docs/OBSERVABILITY.md).
package segstore

import (
	"fmt"

	"ivnt/internal/telemetry"
)

var (
	mSegmentsWritten = telemetry.Default().Counter("segstore_segments_written_total",
		"Segments sealed and committed to a store manifest.")
	mSegmentsPruned = telemetry.Default().Counter("segstore_segments_pruned_total",
		"Segments skipped by zone-map pruning (footer read, chunks never decoded).")
	mSegmentsAnswered = telemetry.Default().Counter("segstore_segments_answered_total",
		"Segments whose partial aggregate was answered from the footer (chunks never decoded).")
	mSegmentsScanned = telemetry.Default().Counter("segstore_segments_scanned_total",
		"Segments whose column chunks were decoded for a scan.")
	mBytesDecoded = telemetry.Default().Counter("segstore_bytes_decoded_total",
		"Chunk bytes read and decoded from segment files.")
	mCompactions = telemetry.Default().Counter("segstore_compactions_total",
		"Adjacent segment groups rewritten into one segment by compaction.")
	mSegmentsMmapped = telemetry.Default().Counter("segstore_mmap_segments_total",
		"Segment files opened via mmap (zero-copy chunk reads).")
	mPagesScanned = telemetry.Default().Counter("segstore_pages_scanned_total",
		"Segment pages decoded for a scan (a v1/v2 segment counts as one page).")
	mPagesPruned = telemetry.Default().Counter("segstore_pages_pruned_total",
		"Pages of live segments skipped by page zone maps (their bytes never read).")
	mDictHits = telemetry.Default().Counter("segstore_dict_cache_hits_total",
		"Chunk dictionaries a store scan took from the store's cache (bytes neither read nor decoded).")
	mDictMisses = telemetry.Default().Counter("segstore_dict_cache_misses_total",
		"Chunk dictionaries a store scan read and decoded because its store had none cached.")
	mDictEvictions = telemetry.Default().Counter("segstore_dict_cache_evictions_total",
		"Decoded dictionaries evicted from a store's cache to stay within its byte budget.")
)

// metricNames lists the families this package must register.
var metricNames = []string{
	"segstore_segments_written_total",
	"segstore_segments_pruned_total",
	"segstore_segments_answered_total",
	"segstore_segments_scanned_total",
	"segstore_bytes_decoded_total",
	"segstore_compactions_total",
	"segstore_mmap_segments_total",
	"segstore_pages_scanned_total",
	"segstore_pages_pruned_total",
	"segstore_dict_cache_hits_total",
	"segstore_dict_cache_misses_total",
	"segstore_dict_cache_evictions_total",
}

// VerifyMetrics is the vet-metrics gate for the segstore catalogue: it
// fails when any segstore_* family is missing from the default registry
// or registered under the wrong type.
func VerifyMetrics() error {
	found := map[string]string{}
	for _, fam := range telemetry.Default().Snapshot() {
		found[fam.Name] = fam.Type
	}
	for _, name := range metricNames {
		typ, ok := found[name]
		if !ok {
			return fmt.Errorf("segstore metric family %q is not registered", name)
		}
		if typ != telemetry.TypeCounter {
			return fmt.Errorf("segstore metric family %q registered as %s, want %s", name, typ, telemetry.TypeCounter)
		}
	}
	return nil
}
