package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/assembly"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/launch"
	"repro/internal/obs/prof"
	"repro/internal/pipeline"
	"repro/internal/preprocess"
	"repro/internal/seq"
)

// runnerDirEnv marks a process as a supervised job-attempt runner.
const runnerDirEnv = "ASM_JOB_DIR"

// Runner exit codes the supervisor maps to outcomes. Anything else
// non-zero is a charged failure.
const (
	// ExitInterrupted: the run checkpointed at a phase boundary after
	// SIGTERM (graceful drain) — requeue, no attempt charged.
	ExitInterrupted = 3
	// ExitBusy: the workdir is locked by another live run (an orphan
	// from a previous server still finishing) — requeue with backoff,
	// no attempt charged; resume converges once the orphan exits.
	ExitBusy = 4
)

// Per-job directory layout (under <data>/jobs/<id>/).
const (
	inputFile     = "input.fa"
	specFile      = "spec.json"
	workDir       = "work"
	contigsFile   = "contigs.fa"
	reportFile    = "report.json"
	progressFile  = "progress"
	collectorFile = "collector.url"
	runnerLogFile = "runner.log"
	// profDir collects per-attempt profiling artifacts (PID-unique
	// stems, so an orphan attempt never clobbers its successor's
	// capture); profileFile is the cross-attempt merged CPU profile
	// the completing attempt archives, served at /jobs/{id}/profile.
	profDir     = "prof"
	profileFile = "profile.pb.gz"
)

// Report is the summary the runner writes next to the contigs — the
// cached result a repeat submission gets back instantly.
type Report struct {
	InputFragments      int   `json:"input_fragments"`
	Clusters            int   `json:"clusters"`
	Singletons          int   `json:"singletons"`
	Contigs             int   `json:"contigs"`
	ContigBases         int   `json:"contig_bases"`
	QuarantinedClusters int   `json:"quarantined_clusters,omitempty"`
	ElapsedMs           int64 `json:"elapsed_ms"`
}

// MaybeRunJob turns this process into a job runner when the
// supervisor's environment marker is present. Commands embedding the
// job service call it first thing in main; it never returns in a
// runner process.
func MaybeRunJob() bool {
	dir := os.Getenv(runnerDirEnv)
	if dir == "" {
		return false
	}
	os.Exit(RunJob(dir))
	return true // unreachable
}

// RunJob executes one attempt of the job rooted at dir and returns
// its exit code. The attempt always runs with Resume on: a fresh
// workdir starts from scratch, a crashed or drained one picks up at
// the last journaled phase boundary, and a finished one just reloads
// its artifacts — all byte-identical by the pipeline's manifest
// contract.
func RunJob(dir string) int {
	// Graceful drain: SIGTERM requests a checkpoint at the next phase
	// boundary instead of killing the attempt mid-phase. Installed
	// first, so a drain during start-up is caught, not fatal.
	interrupt := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	go func() {
		<-sigs
		close(interrupt)
	}()

	var spec Spec
	if err := readJSON(filepath.Join(dir, specFile), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "runner:", err)
		return 1
	}
	spec = spec.withDefaults()
	id := filepath.Base(dir)

	switch spec.FailInject {
	case "crash":
		fmt.Fprintln(os.Stderr, "runner: fail_inject=crash: injected failure")
		return 1
	case "hang":
		fmt.Fprintln(os.Stderr, "runner: fail_inject=hang: wedging forever")
		select {}
	}

	f, err := os.Open(filepath.Join(dir, inputFile))
	if err != nil {
		fmt.Fprintln(os.Stderr, "runner:", err)
		return 1
	}
	recs, err := seq.ReadFASTA(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "runner: malformed input:", err)
		return 1
	}
	frags := make([]*seq.Fragment, len(recs))
	for i, rec := range recs {
		frags[i] = &seq.Fragment{Name: rec.Name, Bases: rec.Bases}
	}

	// Per-job telemetry: this attempt serves its own run collector so
	// asmtop (pointed at the URL from the job status) can attach live.
	// Profiling artifacts go under <job>/prof with a PID-unique stem. A
	// SIGKILLed attempt leaves a truncated CPU stream behind; the
	// completing attempt's merge skips what cannot parse, so the
	// archived profile is reproducible whatever happened in between.
	h := launch.New(id)
	h.Collector = "127.0.0.1:0"
	if spec.Profile {
		h.ProfDir = filepath.Join(dir, profDir)
	}
	if err := h.Start(spec.Ranks); err != nil {
		// Telemetry must never take the job down.
		fmt.Fprintln(os.Stderr, "runner: collector disabled:", err)
		h.Collector = ""
		h.Start(spec.Ranks) // in-process without a collector: cannot fail
	}
	if h.CollectorURL != "" {
		writeFileAtomic(filepath.Join(dir, collectorFile), []byte(h.CollectorURL+"\n"))
	}

	cfg := core.DefaultConfig()
	cfg.Cluster.Psi = spec.Psi
	cfg.Cluster.W = spec.W
	cfg.PreprocessEnabled = spec.Mask
	if spec.Mask {
		rng := rand.New(rand.NewSource(spec.Seed))
		sample := preprocess.Sample(rng, frags, 0.3)
		cfg.Preprocess.Repeats = preprocess.DetectRepeats(sample, 16, 4)
	}
	if spec.Ranks >= 2 {
		cfg.Parallel = cluster.DefaultParallelConfig(spec.Ranks)
		cfg.Parallel.Trace = h.Tracer
		cfg.Parallel.Metrics = h.Metrics
	}
	cfg.AssemblyGuard = &assembly.Guard{
		Retries: spec.AssemblyRetries,
		Backoff: 10 * time.Millisecond,
		Trace:   h.Tracer,
		Metrics: h.Metrics,
	}
	if spec.Store == "disk" {
		// Dir is left empty: the pipeline anchors the store under the
		// job's workdir and journals it in the manifest, so resumed
		// attempts reopen the same bytes.
		cfg.Store = core.StoreConfig{Backend: core.StoreDisk}
	}
	cfg.Cluster.MemBudget = spec.MemBudget

	started := time.Now()
	res, err := pipeline.Run(frags, pipeline.Config{
		Core:      cfg,
		Workdir:   filepath.Join(dir, workDir),
		Resume:    true,
		Flags:     spec.Flags(),
		Interrupt: interrupt,
		OnPhase: func(p pipeline.Phase) {
			writeFileAtomic(filepath.Join(dir, progressFile), []byte(string(p)+"\n"))
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "runner:", err)
		switch {
		case errors.Is(err, pipeline.ErrInterrupted):
			h.Close(errors.New("interrupted: checkpointed at phase boundary"))
			return ExitInterrupted
		case errors.Is(err, pipeline.ErrWorkdirLocked):
			h.Close(errors.New("workdir busy"))
			return ExitBusy
		default:
			h.Close(err)
			return 1
		}
	}

	defer res.Close()
	h.StopProfile()
	if spec.Profile {
		if merr := writeMergedProfile(dir); merr != nil {
			// The job result stands; only the profile archive is lost.
			fmt.Fprintln(os.Stderr, "runner: profile merge:", merr)
		}
	}
	if err := writeResults(dir, res, started); err != nil {
		fmt.Fprintln(os.Stderr, "runner:", err)
		h.Close(err)
		return 1
	}
	writeFileAtomic(filepath.Join(dir, progressFile), []byte("done\n"))
	h.Close(nil)
	return 0
}

// writeMergedProfile folds every parseable CPU artifact under the
// job's prof/ directory — this attempt's plus whatever earlier
// (possibly SIGKILLed, possibly truncated) attempts left behind —
// into the archived merged profile. Atomic via WriteFile's
// temp+rename, and written only by the attempt that completed the
// job, so a racing orphan can at worst leave extra inputs, never a
// torn archive.
func writeMergedProfile(dir string) error {
	cpus, _, _ := prof.DirArtifacts(filepath.Join(dir, profDir))
	ps, skipped, err := prof.ParseFiles(cpus)
	if err != nil {
		return err
	}
	if len(skipped) > 0 {
		fmt.Fprintf(os.Stderr, "runner: skipping %d truncated profile artifact(s)\n", len(skipped))
	}
	if len(ps) == 0 {
		return fmt.Errorf("no parseable CPU profiles under %s", filepath.Join(dir, profDir))
	}
	merged, err := prof.Merge(ps...)
	if err != nil {
		return err
	}
	return merged.WriteFile(filepath.Join(dir, profileFile))
}

// writeResults persists the contigs and summary report atomically, so
// a crash mid-write never leaves a half-result behind a valid name.
func writeResults(dir string, res *core.Result, started time.Time) error {
	var contigRecs []seq.Record
	bases := 0
	for ci, cs := range res.Contigs {
		for ki, c := range cs {
			contigRecs = append(contigRecs, seq.Record{
				Name:  fmt.Sprintf("contig_%d_%d len=%d reads=%d depth=%.1f", ci, ki, len(c.Bases), len(c.Reads), c.Depth),
				Bases: c.Bases,
			})
			bases += len(c.Bases)
		}
	}
	var buf []byte
	{
		var sb writerBuf
		if err := seq.WriteFASTA(&sb, contigRecs, 0); err != nil {
			return fmt.Errorf("encode contigs: %w", err)
		}
		buf = sb
	}
	if err := writeFileAtomic(filepath.Join(dir, contigsFile), buf); err != nil {
		return err
	}
	rpt := Report{
		InputFragments: res.Store.N(),
		Clusters:       len(res.Clusters),
		Singletons:     len(res.Singletons),
		Contigs:        res.TotalContigs(),
		ContigBases:    bases,
		ElapsedMs:      time.Since(started).Milliseconds(),
	}
	rpt.QuarantinedClusters = len(res.Quarantined())
	b, err := json.MarshalIndent(rpt, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(dir, reportFile), append(b, '\n'))
}

// writerBuf is a minimal io.Writer onto a byte slice.
type writerBuf []byte

func (w *writerBuf) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// writeFileAtomic writes via temp file + rename. Best-effort callers
// (progress markers) may ignore the error.
func writeFileAtomic(path string, b []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
