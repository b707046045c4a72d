// Command asmcluster runs the parallel clustering phase on a FASTA
// read file and writes the cluster assignment.
//
// Usage:
//
//	asmcluster -in reads.fa -ranks 8 -psi 20 -w 10 -out clusters.tsv
//
// With -ranks 1 clustering runs serially; otherwise on a simulated
// p-rank master–worker machine. The output TSV has one line per
// fragment: name, cluster label (smallest member index of its
// cluster).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/launch"
	"repro/internal/par"
	"repro/internal/report"
)

func main() {
	h := launch.New("asmcluster")
	in := flag.String("in", "", "input FASTA file (required)")
	out := flag.String("out", "clusters.tsv", "output cluster assignment TSV")
	ranks := flag.Int("ranks", 1, "simulated ranks (1 = serial)")
	psi := flag.Int("psi", 20, "minimum maximal-match length ψ")
	w := flag.Int("w", 10, "GST bucket prefix length (≤ ψ)")
	minOverlap := flag.Int("minoverlap", 40, "minimum overlap length")
	minIdentity := flag.Float64("minidentity", 0.90, "minimum overlap identity")
	storeBackend := flag.String("store", "mem", "sequence-store backend: mem (all-RAM) or disk (out-of-core 2-bit packed store in a temp dir)")
	memBudget := flag.Int64("mem-budget", 0, "spilling GST byte budget; 0 builds the full forest in memory")
	faults := flag.String("faults", "", "fault injection spec, e.g. crash=2@5,drop=0.01,seed=7 (see cluster.ParseFaults)")
	lease := flag.Duration("lease", 250*time.Millisecond, "master lease timeout for fault runs")
	h.Flags(flag.CommandLine)
	flag.StringVar(&h.TraceOut, "trace-out", "", "write a Chrome trace JSON of the run to this file, FILE.rank<r> per rank of a multi-process run (load in ui.perfetto.dev)")
	flag.StringVar(&h.Transport, "transport", "inproc", "run parallel ranks as: inproc goroutines, or tcp / unix OS processes")
	flag.StringVar(&h.ProfDir, "prof-dir", "", "capture a phase/rank-labeled CPU profile plus heap/alloc snapshots into this directory (asmprof reads them)")
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}

	cfg := cluster.DefaultConfig()
	cfg.Psi = *psi
	cfg.W = *w
	cfg.Criteria.MinOverlap = *minOverlap
	cfg.Criteria.MinIdentity = *minIdentity
	cfg.MemBudget = *memBudget
	pcfg := cluster.DefaultParallelConfig(*ranks)
	if *faults != "" {
		if h.Transport != "inproc" {
			h.Exit(launch.Usagef("-faults is for the simulated in-process machine; use real process kills instead"))
		}
		plan, err := cluster.ParseFaults(*faults)
		if err != nil {
			h.Exit(launch.UsageError{Err: err})
		}
		pcfg.Faults = plan
		pcfg.LeaseTimeout = *lease
		if *ranks < 2 {
			fmt.Fprintln(os.Stderr, "asmcluster: -faults ignored with -ranks 1 (serial run)")
		}
	}

	frags, err := repro.ReadFASTAFile(*in)
	if err != nil {
		h.Exit(err)
	}
	store, closeStore, err := core.OpenStore(frags, core.StoreConfig{Backend: *storeBackend})
	if err != nil {
		h.Exit(launch.UsageError{Err: err})
	}
	if closeStore != nil {
		h.AtExit(func() { closeStore() })
	}

	// Every process of a multi-process run parses the same flags and
	// input; a re-executed worker finds its rank in the environment,
	// clusters, and exits without writing output.
	h.OnSignal()
	if err := h.Start(*ranks); err != nil {
		h.Exit(err)
	}
	pcfg.Trace = h.Tracer
	pcfg.Metrics = h.Metrics
	var res *cluster.Result
	exit := par.Exit{OK: true}
	switch {
	case *ranks < 2:
		res = cluster.Serial(store, cfg)
	case h.Trans != nil:
		pcfg.FT = true // real processes genuinely die
		res, _, exit, err = cluster.ParallelRank(store, cfg, pcfg, h.Rank, h.Trans)
	default:
		res, _, err = cluster.Parallel(store, cfg, pcfg)
	}
	if err != nil {
		h.Exit(err)
	}
	if h.Rank != 0 {
		h.Finish(exit) // the master owns every output file
	}

	sum := res.Summarize()
	tb := report.NewTable("Clustering summary", "metric", "value")
	tb.AddRow("fragments", report.Int(int64(store.N())))
	tb.AddRow("multi-fragment clusters", report.Int(int64(sum.NumClusters)))
	tb.AddRow("singletons", report.Int(int64(sum.NumSingletons)))
	tb.AddRow("mean cluster size", report.F2(sum.MeanSize))
	tb.AddRow("largest cluster", report.Int(int64(sum.MaxSize)))
	tb.AddRow("pairs generated", report.Int(res.Stats.Generated))
	tb.AddRow("pairs aligned", report.Int(res.Stats.Aligned))
	tb.AddRow("alignment savings", report.Pct(res.Stats.SavingsFraction()))
	if *faults != "" {
		tb.AddRow("workers lost", report.Int(res.Stats.WorkersLost))
		tb.AddRow("pairs requeued", report.Int(res.Stats.Requeued))
	}
	tb.Fprint(os.Stdout)

	of, err := os.Create(*out)
	if err == nil {
		if err = cluster.WriteLabelsTSV(of, store, res); err == nil {
			err = of.Close()
		}
	}
	if err == nil {
		fmt.Printf("wrote %s\n", *out)
	}
	h.Exit(err)
}
