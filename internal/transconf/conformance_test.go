package transconf

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/check"
	"repro/internal/obs/collector"
	"repro/internal/par/nettrans"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// Child-process environment: when set, the test binary is one worker
// rank of a conformance job instead of the test driver. envCollector
// additionally points the rank at a live telemetry collector.
const (
	envRank      = "TRANSCONF_RANK"
	envSize      = "TRANSCONF_SIZE"
	envNet       = "TRANSCONF_NET"
	envRegistry  = "TRANSCONF_REGISTRY"
	envCollector = "TRANSCONF_COLLECTOR"
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

func TestMain(m *testing.M) {
	if os.Getenv(envRank) != "" {
		childMain()
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
// and, when envCollector names a collector, stream telemetry to it
// while running and final-flush the same dump snapshot the dump file
// gets (the byte-equivalence the live smoke test asserts).
func childMain() {
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "transconf child:", err)
		os.Exit(1)
	}
	rank, err := strconv.Atoi(os.Getenv(envRank))
	if err != nil {
		die(err)
	}
	registry := os.Getenv(envRegistry)
	store := seq.NewStore(workload())
	tr := obs.NewTracer(jobSize, 1<<16)
	var rep *collector.Reporter
	if colURL := os.Getenv(envCollector); colURL != "" {
		rep = collector.StartReporter(collector.ReporterConfig{
			URL: colURL, Rank: rank, Job: "transconf",
			Interval: 50 * time.Millisecond, Tracer: tr,
		})
	}
	t, err := newTransport(rank, os.Getenv(envNet), registry)
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

// spawnChildren re-executes this test binary as worker ranks
// 1..jobSize-1, with cleanup that reaps whatever is still running.
func spawnChildren(t *testing.T, network, registry string, extraEnv ...string) map[int]*exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	children := make(map[int]*exec.Cmd, jobSize-1)
	for r := 1; r < jobSize; r++ {
		cmd := exec.Command(exe, "-transconf-child")
		cmd.Env = append(os.Environ(),
			envRank+"="+strconv.Itoa(r),
			envSize+"="+strconv.Itoa(jobSize),
			envNet+"="+network,
			envRegistry+"="+registry,
		)
		cmd.Env = append(cmd.Env, extraEnv...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("spawn rank %d: %v", r, err)
		}
		children[r] = cmd
	}
	t.Cleanup(func() {
		for _, cmd := range children {
			if cmd.Process != nil {
				_ = cmd.Process.Kill()
			}
			_ = cmd.Wait()
		}
	})
	return children
}

// killInClustering SIGKILLs cmd, the process of rank killRank, as soon
// as rank 0's trace shows the master protocol loop: every rank has
// then passed the GST barrier, so the kill lands mid-clustering
// however quickly the host built the tree. It gives up when stop is
// closed.
func killInClustering(t *testing.T, tr *obs.Tracer, killRank int, cmd *exec.Cmd, stop <-chan struct{}) {
	for {
		for _, e := range tr.Events(0) {
			if e.Kind == obs.EvPhaseEnter && e.A == obs.PhaseMaster {
				t.Logf("SIGKILL rank %d as clustering starts", killRank)
				_ = cmd.Process.Signal(syscall.SIGKILL)
				return
			}
		}
		select {
		case <-stop:
			return
		case <-time.After(2 * time.Millisecond):
		}
	}
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
	children := spawnChildren(t, network, registry)

	store := seq.NewStore(workload())
	tr := obs.NewTracer(jobSize, 1<<16)
	stopKill := make(chan struct{})
	defer close(stopKill)
	if killRank >= 1 {
		go killInClustering(t, tr, killRank, children[killRank], stopKill)
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
	for r, cmd := range children {
		werr := cmd.Wait()
		delete(children, r)
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
