package main

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/preprocess"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// Every workload runs on three ranks: one mostly idle master and one
// worker per core of a two-core host. Assembly farms clusters over two
// goroutines for the same reason.
const (
	ranks           = 3
	assemblyWorkers = 2
)

// dataSeed fixes the simulated organism and its sequencing run. The
// --seed argument then decides the order in which the reads reach the
// program (see workload.reads): a fresh genome per seed makes these
// small inputs differ in cost and contig quality by tens of percent,
// far more than any change the benchmark should resolve.
const dataSeed = 20060425

// Genome lengths, sized so one assembly takes a few seconds on two
// cores and a run holds several of them.
const (
	maizeGenomeLen = 100_000
	wgsGenomeLen   = 40_000
)

// Out-of-core settings of wgs-ooc: a one-block (64 KiB) read cache,
// smaller than the packed store, and a GST budget that splits the
// suffix tree into several segments.
const (
	oocCacheBytes = 64 << 10
	oocMemBudget  = 8 << 20
)

// workload is one named benchmark input and the configuration the
// program runs it with.
type workload struct {
	name string
	// tcp runs the ranks as nettrans endpoints on loopback TCP.
	tcp bool
	// skipAssembly stops after clustering, as asmcluster does.
	skipAssembly bool
	store        core.StoreConfig
	cluster      cluster.Config
}

var workloads = map[string]workload{
	"maize": {name: "maize", cluster: cluster.DefaultConfig()},
	"wgs":   {name: "wgs", cluster: cluster.DefaultConfig()},
	"wgs-ooc": {
		name:         "wgs-ooc",
		tcp:          true,
		skipAssembly: true,
		store:        core.StoreConfig{Backend: core.StoreDisk, CacheBytes: oocCacheBytes},
		cluster:      withMemBudget(cluster.DefaultConfig(), oocMemBudget),
	},
}

func withMemBudget(c cluster.Config, b int64) cluster.Config {
	c.MemBudget = b
	return c
}

// input is what set-up makes for one seed: the reads handed to the
// program, the preprocessing configuration (its repeat database
// included), and the reference genomes contigs are validated against.
type input struct {
	reads   []*seq.Fragment
	pre     preprocess.Config
	genomes map[string][]byte
}

// makeInput synthesizes the workload's reads from the internal/simulate
// preset and permutes them with seed.
func (w workload) makeInput(seed int64) (*input, error) {
	rng := rand.New(rand.NewSource(dataSeed))
	trim := preprocess.DefaultTrimConfig()
	trim.Vector = simulate.DefaultReadConfig().Vector
	in := &input{pre: preprocess.Config{Trim: trim}}
	var g *simulate.Genome
	switch w.name {
	case "maize":
		// Section 8: the curated database knows only the two long
		// repeat families; the medium ones leak through masking.
		m := simulate.MaizeLike(rng, maizeGenomeLen)
		g, in.reads = m.Genome, m.All()
		var known [][]byte
		for fi, cons := range g.FamilySeqs {
			if cons != nil && fi < 2 {
				known = append(known, cons)
			}
		}
		in.pre.Repeats = preprocess.NewRepeatDBFromSeqs(known, 16)
	case "wgs", "wgs-ooc":
		// Section 9.1: repeats are detected statistically from a
		// 20% sample of the reads.
		g, in.reads = simulate.DrosophilaLike(rng, wgsGenomeLen)
		in.pre.Repeats = preprocess.DetectRepeats(preprocess.Sample(rng, in.reads, 0.2), 16, 4)
		in.pre.MinUnmasked = 100
	default:
		return nil, fmt.Errorf("unknown workload %q", w.name)
	}
	in.genomes = map[string][]byte{g.Name: g.Seq}
	perm := rand.New(rand.NewSource(seed)).Perm(len(in.reads))
	shuffled := make([]*seq.Fragment, len(in.reads))
	for i, j := range perm {
		shuffled[i] = in.reads[j]
	}
	in.reads = shuffled
	return in, nil
}
