package transconf

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/launch"
	"repro/internal/obs"
	"repro/internal/obs/check"
	"repro/internal/obs/collector"
	"repro/internal/par/nettrans"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// Timing constants are sized for the race detector's ~10x slowdown: a
// lease short enough to make SIGKILL recovery quick but long enough
// that a healthy worker's slowest instrumented batch never exceeds it
// (a falsely fired worker is never re-admitted, and firing all of
// them aborts the run).
const (
	jobSize  = 4
	jobEpoch = 17
	lease    = 1500 * time.Millisecond
	liveness = 4 * time.Second
)

// TestMain turns the test binary into a worker rank when launch.Spawn
// re-executed it as one.
func TestMain(m *testing.M) {
	c, isChild, err := launch.FromEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "transconf child:", err)
		os.Exit(1)
	}
	if isChild {
		childMain(c)
		return
	}
	os.Exit(m.Run())
}

// workload synthesizes the fixed conformance read set: a
// repeat-bearing genome every rank regenerates identically, sized so
// a 4-rank socket run takes long enough for a mid-phase kill to land.
func workload() []*seq.Fragment {
	rng := rand.New(rand.NewSource(99))
	g := simulate.NewGenome(rng, "g", simulate.GenomeConfig{
		Length:  20000,
		Repeats: []simulate.RepeatFamily{{Length: 300, Copies: 6, Divergence: 0.02}},
	})
	rc := simulate.DefaultReadConfig()
	rc.MeanLen = 200
	rc.LenSD = 30
	rc.VectorProb = 0
	return simulate.SampleWGS(rng, g, 4.0, rc, "r")
}

func jobParallelConfig(tr *obs.Tracer) cluster.ParallelConfig {
	pcfg := cluster.DefaultParallelConfig(jobSize)
	pcfg.FT = true
	pcfg.LeaseTimeout = lease
	pcfg.BatchSize = 16
	pcfg.Trace = tr
	return pcfg
}

func newTransport(rank int, network, registry string) (*nettrans.Transport, error) {
	return nettrans.New(nettrans.Config{
		Rank:        rank,
		Size:        jobSize,
		Network:     network,
		RegistryDir: registry,
		Epoch:       jobEpoch,
		Liveness:    liveness,
	})
}

func dumpPath(registry string, rank int) string {
	return filepath.Join(registry, fmt.Sprintf("events.rank%d.json", rank))
}

// childMain is one worker rank: regenerate the workload, cluster
// through the socket transport, leave an events dump for the driver —
// and, when the parent forwarded a collector, stream telemetry to it
// while running and final-flush the same dump snapshot the dump file
// gets (the byte-equivalence the live smoke test asserts).
func childMain(c launch.Child) {
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "transconf child:", err)
		os.Exit(1)
	}
	rank, registry := c.Rank, c.Registry
	store := seq.NewStore(workload())
	tr := obs.NewTracer(jobSize, 1<<16)
	var rep *collector.Reporter
	if c.Collector != "" {
		rep = collector.StartReporter(collector.ReporterConfig{
			URL: c.Collector, Rank: rank, Job: "transconf",
			Interval: 50 * time.Millisecond, Tracer: tr,
		})
	}
	t, err := newTransport(rank, c.Network, registry)
	if err != nil {
		rep.Close(nil, false, err.Error())
		die(err)
	}
	_, _, exit, err := cluster.ParallelRank(store, cluster.DefaultConfig(), jobParallelConfig(tr), rank, t)
	if cerr := t.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		rep.Close(nil, false, err.Error())
		die(err)
	}
	d := tr.Dump()
	f, err := os.Create(dumpPath(registry, rank))
	if err != nil {
		die(err)
	}
	if err := d.WriteJSON(f); err == nil {
		err = f.Close()
	}
	if err != nil {
		die(err)
	}
	rep.Close(d, exit.OK, exit.Reason)
	if !exit.OK {
		die(fmt.Errorf("rank %d did not finish OK: %s", rank, exit.Reason))
	}
	os.Exit(0)
}

// serialLabels is the canonical partition every backend must produce.
func serialLabels(store *seq.Store) []int {
	return cluster.PartitionLabels(cluster.Serial(store, cluster.DefaultConfig()))
}

// spawnChildren starts worker ranks 1..jobSize-1 as re-executions of
// this test binary through launch.Spawn, with cleanup that kills and
// reaps whatever is still running.
func spawnChildren(t *testing.T, network, registry string, tel launch.Telemetry) *launch.Fleet {
	t.Helper()
	fleet, err := launch.Spawn(jobSize, network, registry, jobEpoch, tel)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		fleet.KillAll()
		fleet.Wait()
	})
	return fleet
}

// runJob drives one multi-process clustering job: worker ranks are
// re-executions of this test binary, rank 0 runs in-test. killRank,
// when ≥ 1, is SIGKILLed as clustering starts. It returns the
// master's partition labels, the run statistics, and the merged
// per-process event dump (the killed rank's dump is missing, which
// the merge marks as truncated).
func runJob(t *testing.T, network string, killRank int) ([]int, cluster.Stats, *obs.Dump) {
	t.Helper()
	registry := t.TempDir()
	fleet := spawnChildren(t, network, registry, launch.Telemetry{})

	store := seq.NewStore(workload())
	tr := obs.NewTracer(jobSize, 1<<16)
	stopKill := make(chan struct{})
	defer close(stopKill)
	if killRank >= 1 {
		go func() {
			if fleet.KillInClustering(tr, killRank, stopKill) {
				t.Logf("SIGKILL rank %d as clustering starts", killRank)
			}
		}()
	}
	trans, err := newTransport(0, network, registry)
	if err != nil {
		t.Fatal(err)
	}
	res, _, exit, err := cluster.ParallelRank(store, cluster.DefaultConfig(), jobParallelConfig(tr), 0, trans)
	if cerr := trans.Close(); err == nil && cerr != nil {
		t.Errorf("transport close: %v", cerr)
	}
	if err != nil {
		t.Fatalf("master rank failed: %v", err)
	}
	if !exit.OK {
		t.Fatalf("master did not finish OK: %s", exit.Reason)
	}

	// Reap the workers: every rank except a killed one must exit 0.
	for r, werr := range fleet.Wait() {
		if r == killRank {
			continue
		}
		if werr != nil {
			t.Errorf("rank %d exited with error: %v", r, werr)
		}
	}

	dumps := []*obs.Dump{tr.Dump()}
	for r := 1; r < jobSize; r++ {
		if r == killRank {
			continue
		}
		d, err := obs.ReadDumpFile(dumpPath(registry, r))
		if err != nil {
			t.Fatalf("rank %d events dump: %v", r, err)
		}
		dumps = append(dumps, d)
	}
	merged, err := obs.MergeDumps(dumps...)
	if err != nil {
		t.Fatal(err)
	}
	return cluster.PartitionLabels(res), res.Stats, merged
}

// assertCanonical checks the partition oracle against the serial
// transitive closure and the causal invariants over the merged trace.
func assertCanonical(t *testing.T, got []int, merged *obs.Dump) {
	t.Helper()
	want := serialLabels(seq.NewStore(workload()))
	if !cluster.SamePartition(got, want) {
		t.Fatalf("partition oracle: transport run diverged from the serial transitive closure (%d fragments)", len(want))
	}
	sum, err := check.Dump(merged, nil)
	if err != nil {
		t.Fatalf("trace oracle over merged per-process dumps: %v", err)
	}
	if sum.Events == 0 {
		t.Fatal("merged trace is empty")
	}
}

// TestConformanceInproc anchors the suite: the in-process backend
// running the same fault-tolerant protocol configuration must produce
// the canonical partition and pass the stream invariants.
func TestConformanceInproc(t *testing.T) {
	store := seq.NewStore(workload())
	tr := obs.NewTracer(jobSize, 1<<16)
	res, ph, err := cluster.Parallel(store, cluster.DefaultConfig(), jobParallelConfig(tr))
	if err != nil {
		t.Fatal(err)
	}
	if !cluster.SamePartition(cluster.PartitionLabels(res), serialLabels(store)) {
		t.Fatal("partition oracle: in-process FT run diverged from serial")
	}
	okRank := func(r int) bool { return ph.Exits == nil || ph.Exits[r].OK }
	if _, err := check.Stream(tr, okRank); err != nil {
		t.Fatalf("trace oracle: %v", err)
	}
}

func TestConformanceTCP(t *testing.T) {
	labels, _, merged := runJob(t, "tcp", 0)
	assertCanonical(t, labels, merged)
}

func TestConformanceUnix(t *testing.T) {
	labels, _, merged := runJob(t, "unix", 0)
	assertCanonical(t, labels, merged)
}

// TestConformanceSIGKILL kills a worker process mid-phase; the lease
// protocol must detect the silent rank, re-execute its work, and
// still converge on the canonical partition. The killed rank never
// writes its events dump — the merge marks it truncated and the
// remaining streams must still satisfy the causal invariants.
func TestConformanceSIGKILL(t *testing.T) {
	labels, stats, merged := runJob(t, "tcp", 2)
	assertCanonical(t, labels, merged)
	if stats.WorkersLost < 1 {
		t.Errorf("kill landed after the run finished: WorkersLost=%d (expected ≥ 1); partition still canonical", stats.WorkersLost)
	}
}
