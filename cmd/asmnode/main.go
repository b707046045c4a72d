// Command asmnode runs one rank of the parallel clustering engine as
// its own OS process, with ranks wired together over fault-tolerant
// TCP or Unix-domain sockets instead of in-process channels.
//
// Spawn mode forks the whole machine from one invocation — this
// process becomes rank 0 (the master) and re-executes itself once per
// worker rank:
//
//	asmnode -in reads.fa -size 4 -transport tcp -spawn -out clusters.tsv
//
// Manual mode launches each rank by hand (possibly on different
// machines for tcp), rendezvousing through a shared registry
// directory or a static -peers list:
//
//	asmnode -in reads.fa -size 4 -rank 2 -registry /shared/reg
//	asmnode -in reads.fa -size 4 -rank 1 -peers ,host1:9001,host2:9002,host3:9003 -listen :9001
//
// Every rank loads the same input and parameters (deterministic, so
// nothing is shipped over the wire); rank 0 alone writes the cluster
// assignment. Transport runs always use the fault-tolerant lease
// protocol: a SIGKILLed worker is detected by heartbeat timeout and
// its work is re-executed, and -kill-rank injects exactly that failure
// as clustering starts, for conformance testing.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/launch"
	"repro/internal/obs"
	"repro/internal/report"
)

func main() {
	h := launch.New("asmnode")
	in := flag.String("in", "", "input FASTA file (required)")
	out := flag.String("out", "clusters.tsv", "output cluster assignment TSV (rank 0 only)")
	size := flag.Int("size", 2, "total ranks in the machine")
	rank := flag.Int("rank", 0, "this process's rank (manual mode)")
	spawn := flag.Bool("spawn", false, "fork all worker ranks from this process (which becomes rank 0)")
	registry := flag.String("registry", "", "shared rendezvous directory (spawn mode creates one)")
	peers := flag.String("peers", "", "comma-separated peer addresses, index = rank (alternative to -registry)")
	epoch := flag.Uint64("epoch", 1, "job epoch guarding against stale incarnations")
	lease := flag.Duration("lease", 250*time.Millisecond, "master lease timeout for re-executing lost work")
	psi := flag.Int("psi", 20, "minimum maximal-match length ψ")
	w := flag.Int("w", 10, "GST bucket prefix length (≤ ψ)")
	minOverlap := flag.Int("minoverlap", 40, "minimum overlap length")
	minIdentity := flag.Float64("minidentity", 0.90, "minimum overlap identity")
	killRank := flag.Int("kill-rank", 0, "spawn mode: SIGKILL this worker rank as clustering starts (0 disables)")
	h.Flags(flag.CommandLine)
	flag.StringVar(&h.Transport, "transport", "tcp", "socket transport: tcp or unix")
	flag.StringVar(&h.TraceOut, "trace-out", "", "write this rank's Chrome trace JSON to FILE.rank<r> (load in ui.perfetto.dev)")
	flag.StringVar(&h.Net.Listen, "listen", "", "listen address for this rank (default: ephemeral)")
	flag.DurationVar(&h.Net.Liveness, "liveness", 0, "declare a silent peer dead after this long (0 = transport default)")
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	if h.Transport != "tcp" && h.Transport != "unix" {
		h.Exit(launch.Usagef("unknown -transport %q (tcp, unix)", h.Transport))
	}
	if *peers != "" {
		if h.Net.Peers = strings.Split(*peers, ","); len(h.Net.Peers) != *size {
			h.Exit(launch.Usagef("-peers names %d ranks, -size is %d", len(h.Net.Peers), *size))
		}
	}
	if *killRank >= *size {
		h.Exit(launch.Usagef("-kill-rank %d out of range for size %d", *killRank, *size))
	}

	frags, err := repro.ReadFASTAFile(*in)
	if err != nil {
		h.Exit(err)
	}
	store := repro.NewStore(frags)
	cfg := cluster.DefaultConfig()
	cfg.Psi = *psi
	cfg.W = *w
	cfg.Criteria.MinOverlap = *minOverlap
	cfg.Criteria.MinIdentity = *minIdentity
	pcfg := cluster.DefaultParallelConfig(*size)
	pcfg.FT = true // real processes genuinely die
	pcfg.LeaseTimeout = *lease
	if *killRank > 0 {
		// The kill fires off rank 0's trace.
		h.Tracer = obs.NewTracer(*size, obs.DefaultRingCap)
	}

	// A child re-executed by -spawn finds its identity in the
	// environment and ignores the rank/rendezvous flags it inherited.
	h.OnSignal()
	if *spawn {
		h.Registry = *registry
		err = h.Start(*size)
	} else {
		err = h.Join(launch.Child{Rank: *rank, Size: *size, Network: h.Transport, Registry: *registry, Epoch: *epoch})
	}
	if err != nil {
		h.Exit(err)
	}
	pcfg.Trace = h.Tracer
	pcfg.Metrics = h.Metrics
	stopKill := make(chan struct{})
	if *killRank > 0 && h.Fleet != nil {
		go func() {
			if h.Fleet.KillInClustering(h.Tracer, *killRank, stopKill) {
				fmt.Fprintf(os.Stderr, "asmnode: SIGKILLed rank %d as clustering started\n", *killRank)
			}
		}()
	}
	res, _, exit, err := cluster.ParallelRank(store, cfg, pcfg, h.Rank, h.Trans)
	close(stopKill)
	if err != nil {
		h.Exit(err)
	}
	if h.Rank != 0 {
		h.Finish(exit)
	}

	sum := res.Summarize()
	tb := report.NewTable("Clustering summary", "metric", "value")
	tb.AddRow("ranks (OS processes)", report.Int(int64(*size)))
	tb.AddRow("transport", h.Transport)
	tb.AddRow("fragments", report.Int(int64(store.N())))
	tb.AddRow("multi-fragment clusters", report.Int(int64(sum.NumClusters)))
	tb.AddRow("singletons", report.Int(int64(sum.NumSingletons)))
	tb.AddRow("pairs generated", report.Int(res.Stats.Generated))
	tb.AddRow("pairs aligned", report.Int(res.Stats.Aligned))
	tb.AddRow("workers lost", report.Int(res.Stats.WorkersLost))
	tb.AddRow("pairs requeued", report.Int(res.Stats.Requeued))
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
