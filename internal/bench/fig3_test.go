package bench

import (
	"runtime"
	"testing"
)

// TestMeasurePairAllocatesNoPayload pins that a Fig. 3 measurement sends
// sizes only. A 16 MiB two-rank job allocates about 7–9 KiB (system, ranks,
// envelopes); one payload buffer of the message size would cost 16 MiB.
func TestMeasurePairAllocatesNoPayload(t *testing.T) {
	const size, limit = 16 << 20, 64 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := measurePair(CNBN, size); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("measurePair(CNBN, %d) allocated %d bytes, want < %d", size, got, limit)
	}
}
