// Command asmpipeline runs the full cluster-then-assemble pipeline on
// a FASTA read file and writes assembled contigs.
//
// Usage:
//
//	asmpipeline -in reads.fa -out contigs.fa -ranks 8 -mask
//
// -mask enables statistical repeat detection from a 30 % read sample
// followed by masking (the Section 9.1 procedure); trimming and vector
// screening run only when the reads carry qualities / a known vector,
// so plain FASTA input passes through unmodified.
//
// With -workdir the run journals a manifest and checkpoints each phase
// boundary (preprocessed fragments, clustering partition, contigs);
// adding -resume skips phases the manifest records as complete and
// produces byte-identical output. -faults injects a fault plan into
// the parallel clustering engine (see -faults syntax in the error
// message for an empty spec); assembly always runs under a
// retry/quarantine guard, so a pathological cluster degrades to
// single-read contigs instead of aborting the pipeline.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro"
	"repro/internal/assembly"
	"repro/internal/cluster"
	"repro/internal/launch"
	"repro/internal/pipeline"
	"repro/internal/preprocess"
	"repro/internal/seq"
)

func main() {
	h := launch.New("asmpipeline")
	in := flag.String("in", "", "input FASTA file (required)")
	qual := flag.String("qual", "", "optional companion .qual file (enables quality trimming)")
	out := flag.String("out", "contigs.fa", "output contig FASTA")
	ranks := flag.Int("ranks", 1, "simulated ranks (1 = serial clustering)")
	psi := flag.Int("psi", 20, "minimum maximal-match length ψ")
	w := flag.Int("w", 10, "GST bucket prefix length (≤ ψ)")
	mask := flag.Bool("mask", false, "statistically detect and mask repeats first")
	seed := flag.Int64("seed", 1, "seed for repeat-detection sampling")
	workdir := flag.String("workdir", "", "directory for the job manifest and phase checkpoints")
	resume := flag.Bool("resume", false, "resume from the workdir's manifest, skipping completed phases")
	faults := flag.String("faults", "", "fault plan for the parallel engine, e.g. crash=2@5,gstcrash=3@1,corrupt=0.01")
	store := flag.String("store", "mem", "sequence-store backend: mem (all-RAM) or disk (out-of-core 2-bit packed store under the workdir)")
	memBudget := flag.Int64("mem-budget", 0, "spilling GST byte budget; 0 builds the full forest in memory")
	retries := flag.Int("assembly-retries", 1, "per-cluster assembly retries before quarantine")
	deadline := flag.Duration("assembly-deadline", 0, "per-attempt assembly wall budget (0 = none)")
	h.Flags(flag.CommandLine)
	flag.StringVar(&h.Transport, "transport", "inproc", "run parallel clustering ranks as: inproc goroutines, or tcp / unix OS processes")
	flag.StringVar(&h.ProfDir, "prof-dir", "", "capture a phase/rank-labeled CPU profile plus heap/alloc snapshots into this directory (asmprof reads them)")
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *resume && *workdir == "" {
		h.Exit(launch.Usagef("-resume requires -workdir"))
	}

	frags, err := repro.ReadFASTAFile(*in)
	if err != nil {
		h.Exit(err)
	}
	if *qual != "" {
		qf, err := os.Open(*qual)
		if err != nil {
			h.Exit(err)
		}
		quals, err := seq.ReadQual(qf)
		qf.Close()
		if err == nil {
			err = repro.AttachQuals(frags, quals)
		}
		if err != nil {
			h.Exit(fmt.Errorf("malformed qualities %s: %w", *qual, err))
		}
	}

	cfg := repro.DefaultConfig()
	cfg.Cluster.Psi = *psi
	cfg.Cluster.W = *w
	cfg.Cluster.MemBudget = *memBudget
	switch *store {
	case "", repro.StoreMem:
	case repro.StoreDisk:
		cfg.Store = repro.StoreConfig{Backend: repro.StoreDisk}
	default:
		h.Exit(launch.Usagef("unknown -store %q (mem, disk)", *store))
	}
	cfg.PreprocessEnabled = *mask || *qual != ""
	if *mask {
		rng := rand.New(rand.NewSource(*seed))
		sample := preprocess.Sample(rng, frags, 0.3)
		cfg.Preprocess.Repeats = repro.DetectRepeats(sample, 16, 4)
	}
	if *ranks >= 2 {
		cfg.Parallel = repro.DefaultParallelConfig(*ranks)
	}
	if *faults != "" {
		if *ranks < 2 {
			h.Exit(launch.Usagef("-faults requires -ranks ≥ 2"))
		}
		if h.Transport != "inproc" {
			h.Exit(launch.Usagef("-faults is for the simulated in-process machine; use real process kills with -transport %s", h.Transport))
		}
		plan, err := cluster.ParseFaults(*faults)
		if err != nil {
			h.Exit(launch.UsageError{Err: err})
		}
		cfg.Parallel.Faults = plan
	}

	// Out-of-core fields join the fingerprint only when set, so
	// existing all-RAM workdirs keep resuming.
	manifestFlags := fmt.Sprintf("psi=%d w=%d ranks=%d mask=%v qual=%v seed=%d",
		*psi, *w, *ranks, *mask, *qual != "", *seed)
	if cfg.Store.Backend == repro.StoreDisk {
		manifestFlags += " store=disk"
	}
	if *memBudget > 0 {
		manifestFlags += fmt.Sprintf(" membudget=%d", *memBudget)
	}

	// Every process of a multi-process run re-reads and
	// re-preprocesses the same input deterministically; only rank 0
	// assembles and writes output.
	h.OnSignal()
	if err := h.Start(*ranks); err != nil {
		h.Exit(err)
	}
	cfg.Parallel.Trace = h.Tracer
	cfg.Parallel.Metrics = h.Metrics
	if h.Trans != nil {
		cfg.Parallel.FT = true // real processes genuinely die
		cfg.Transport = h.Trans
		cfg.TransportRank = h.Rank
	}
	cfg.AssemblyGuard = &assembly.Guard{
		Retries:  *retries,
		Backoff:  10 * time.Millisecond,
		Deadline: *deadline,
		Trace:    h.Tracer,
		Metrics:  h.Metrics,
	}
	res, err := pipeline.Run(frags, pipeline.Config{
		Core:    cfg,
		Workdir: *workdir,
		Resume:  *resume,
		Flags:   manifestFlags,
	})
	if err != nil {
		h.Exit(err)
	}
	h.AtExit(func() { res.Close() })
	if h.Rank != 0 {
		h.Finish(res.RankExit) // the master owns all remaining phases and every output file
	}

	summaryTable(len(frags), res, os.Stdout)
	var contigFrags []*repro.Fragment
	for ci, cs := range res.Contigs {
		for ki, c := range cs {
			contigFrags = append(contigFrags, &repro.Fragment{
				Name:  fmt.Sprintf("contig_%d_%d len=%d reads=%d depth=%.1f", ci, ki, len(c.Bases), len(c.Reads), c.Depth),
				Bases: c.Bases,
			})
		}
	}
	of, err := os.Create(*out)
	if err == nil {
		if err = repro.WriteFASTA(of, contigFrags); err == nil {
			err = of.Close()
		}
	}
	if err == nil {
		fmt.Printf("wrote %d contigs to %s\n", len(contigFrags), *out)
	}
	h.Exit(err)
}
