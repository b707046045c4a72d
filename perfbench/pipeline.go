package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/assembly"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/par/nettrans"
	"repro/internal/preprocess"
	"repro/internal/seq"
	"repro/internal/seq/diskstore"
)

// probes are the traced run's instruments. A nil *probes runs the
// program exactly as a user would, with nothing wrapped.
type probes struct {
	tracer *obs.Tracer
	store  *countingSeqs
	links  []*countingTransport
	openS  float64 // seconds spent building the store
	diskB  int64   // bytes the disk store wrote
	cacheH uint64  // block-cache hits and misses after the run
	cacheM uint64
}

// outcome is what one assembly produced and what it cost.
type outcome struct {
	wall     float64
	modeled  float64
	result   *cluster.Result
	phases   cluster.PhaseStats // in-process runs only
	rankSt   []par.Stats        // nettrans runs only: one per rank
	contigs  [][]assembly.Contig
	digest   [sha256.Size]byte
	clusters [][]int
}

// assemble runs the program once on reads, from preprocessing to
// contigs (to the partition when the workload skips assembly). It is
// core.Run with the store, the transport and the tracer exposed so
// the traced run can wrap them.
func (w workload) assemble(in *input, pr *probes) (*outcome, error) {
	start := time.Now()
	out := &outcome{}
	frags, _ := preprocess.Run(in.reads, in.pre)

	openStart := time.Now()
	store, dir, done, err := w.openStore(frags)
	if err != nil {
		return nil, err
	}
	disk, _ := store.(*diskstore.Store)
	if pr != nil {
		pr.openS = time.Since(openStart).Seconds()
		pr.store = &countingSeqs{Seqs: store}
		store = pr.store
	}
	defer func() {
		if pr != nil && dir != "" {
			pr.diskB = dirBytes(dir)
			if disk != nil {
				pr.cacheH, pr.cacheM = disk.CacheStats()
			}
		}
		done()
	}()

	pcfg := cluster.DefaultParallelConfig(ranks)
	if pr != nil {
		pcfg.Trace = pr.tracer
	}
	if w.tcp {
		out.result, out.rankSt, err = w.clusterTCP(store, pcfg, pr)
		for _, st := range out.rankSt {
			out.modeled = max(out.modeled, st.Modeled())
		}
	} else {
		out.result, out.phases, err = cluster.Parallel(store, w.cluster, pcfg)
		out.modeled = out.phases.GST.MaxModeled + out.phases.Cluster.MaxModeled
	}
	if err != nil {
		return nil, err
	}
	out.clusters = out.result.Clusters()
	if !w.skipAssembly {
		out.contigs = assembly.AssembleAll(store, out.clusters, assembly.DefaultConfig(), assemblyWorkers)
	}
	out.wall = time.Since(start).Seconds()
	out.digest = contigDigest(out.contigs)
	return out, nil
}

// clusterTCP runs every rank as its own nettrans endpoint on loopback
// TCP inside this process, sharing one store, as internal/bench's
// transport workload does. It returns rank 0's result and each rank's
// machine statistics.
func (w workload) clusterTCP(store seq.Seqs, pcfg cluster.ParallelConfig, pr *probes) (*cluster.Result, []par.Stats, error) {
	registry, err := os.MkdirTemp("", "registry-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(registry)
	pcfg.FT = true
	if pr != nil {
		pr.links = make([]*countingTransport, ranks)
	}
	var (
		res   *cluster.Result
		stats = make([]par.Stats, ranks)
		errs  = make(chan error, ranks)
	)
	for r := 0; r < ranks; r++ {
		go func(r int) {
			nt, err := nettrans.New(nettrans.Config{
				Rank: r, Size: ranks, Network: "tcp",
				RegistryDir: registry, Epoch: 1,
			})
			if err != nil {
				errs <- err
				return
			}
			var t par.Transport = nt
			if pr != nil {
				pr.links[r] = &countingTransport{Transport: nt}
				t = pr.links[r]
			}
			rres, st, _, err := cluster.ParallelRank(store, w.cluster, pcfg, r, t)
			if cerr := t.Close(); err == nil {
				err = cerr
			}
			stats[r] = st
			if r == 0 {
				res = rres
			}
			errs <- err
		}(r)
	}
	var all []error
	for i := 0; i < ranks; i++ {
		all = append(all, <-errs)
	}
	if err := errors.Join(all...); err != nil {
		return nil, nil, fmt.Errorf("tcp clustering: %w", err)
	}
	return res, stats, nil
}

// contigDigest hashes every contig's bases in cluster order.
func contigDigest(contigs [][]assembly.Contig) [sha256.Size]byte {
	h := sha256.New()
	for i, cs := range contigs {
		fmt.Fprintf(h, ">%d %d\n", i, len(cs))
		for _, c := range cs {
			h.Write(c.Bases)
			h.Write([]byte{'\n'})
		}
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) int64 {
	var n int64
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if fi, err := os.Stat(filepath.Join(dir, e.Name())); err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n
}

// openStore builds the workload's store over frags: in memory, or on
// disk in a fresh directory under the temp dir. done closes the store
// and removes its directory.
func (w workload) openStore(frags []*seq.Fragment) (store seq.Seqs, dir string, done func(), err error) {
	scfg := w.store
	if scfg.Backend == core.StoreDisk {
		if dir, err = os.MkdirTemp("", "store-"); err != nil {
			return nil, "", nil, err
		}
		scfg.Dir = dir
	}
	store, closeStore, err := core.OpenStore(frags, scfg)
	if err != nil {
		if dir != "" {
			os.RemoveAll(dir)
		}
		return nil, "", nil, err
	}
	done = func() {
		if closeStore != nil {
			closeStore()
		}
		if dir != "" {
			os.RemoveAll(dir)
		}
	}
	return store, dir, done, nil
}
