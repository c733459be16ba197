package dvfs_test

import (
	"sync"
	"testing"

	"eprons/internal/core"
	"eprons/internal/dvfs"
	"eprons/internal/server"
)

// TestTrainingGridTakesFastPath pins how often the error-banded fast
// metric decides on its own while the default server power table trains:
// at least 95% of the busy-core probes. The exact sum is meant for the
// probes inside the band and for deadlines on a lattice boundary only.
func TestTrainingGridTakesFastPath(t *testing.T) {
	cfg := core.DefaultTrainConfig()
	var mu sync.Mutex
	var policies []*dvfs.ModelPolicy
	cfg.Policy = func(m *dvfs.Model) server.Policy {
		p := dvfs.NewEPRONSServer(m, cfg.TargetVP)
		mu.Lock()
		policies = append(policies, p)
		mu.Unlock()
		return p
	}
	if _, err := core.TrainServerPowerTable(cfg); err != nil {
		t.Fatal(err)
	}
	var fast, exact, terms int64
	for _, p := range policies {
		f, e, x := dvfs.ProbeCounts(p)
		fast, exact, terms = fast+f, exact+e, terms+x
	}
	share := float64(fast) / float64(fast+exact)
	t.Logf("busy-core probes: %d fast, %d exact (%.2f%% fast); %d queued VPs from the exact sum", fast, exact, 100*share, terms)
	if fast+exact == 0 || share < 0.95 {
		t.Fatalf("fast path decided %d of %d busy-core probes (%.2f%%), want ≥ 95%%", fast, fast+exact, 100*share)
	}
}
