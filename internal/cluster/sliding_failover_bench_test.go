package cluster

import (
	"testing"
	"time"
)

// TestRunSlidingFailoverBench smoke-tests the sliding-window failover
// benchmark runner used by cmd/ddsbench (it verifies the merged window
// sample against the brute-force minimum internally).
func TestRunSlidingFailoverBench(t *testing.T) {
	cfg := DefaultBenchConfig()
	cfg.Shards = 2
	cfg.Elements = 5000
	cfg.Distinct = 1000
	cfg.Batch = 8
	cfg.Window = 4
	res, err := RunSlidingFailoverBench(cfg, 50, 1, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.PreKillOpsPerSec <= 0 || res.PostKillOpsPerSec <= 0 {
		t.Fatalf("implausible throughput: %+v", res)
	}
	if res.Failovers == 0 {
		t.Fatal("no site failed over across the kill")
	}
}
