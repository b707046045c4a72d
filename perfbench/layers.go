package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/assembly"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/pairgen"
	"repro/internal/par"
	"repro/internal/pgst"
	"repro/internal/preprocess"
	"repro/internal/seq"
	"repro/internal/suffixtree"
	"repro/internal/unionfind"
)

// countingSeqs counts and times every sequence read the program makes
// through the store. Ranks read concurrently, hence the atomics.
type countingSeqs struct {
	seq.Seqs
	reads, bytes, ns atomic.Int64
}

func (c *countingSeqs) Seq(sid int) []byte {
	t := time.Now()
	b := c.Seqs.Seq(sid)
	c.ns.Add(int64(time.Since(t)))
	c.reads.Add(1)
	c.bytes.Add(int64(len(b)))
	return b
}

// countingTransport counts and times the envelopes a rank hands to its
// socket transport.
type countingTransport struct {
	par.Transport
	delivers, bytes, ns atomic.Int64
}

func (c *countingTransport) Deliver(e par.Envelope, matched chan struct{}) error {
	t := time.Now()
	err := c.Transport.Deliver(e, matched)
	c.ns.Add(int64(time.Since(t)))
	c.delivers.Add(1)
	c.bytes.Add(int64(len(e.Data)))
	return err
}

const mib = 1 << 20

// traceCapacity is the per-rank event ring of the traced run, large
// enough that no event of one assembly is overwritten.
const traceCapacity = 1 << 18

// parallelLayers reads the per-layer metrics of one traced assembly
// from its probes, its phase spans and its events.
func parallelLayers(o *outcome, pr *probes) (map[string]float64, error) {
	for r := 0; r < pr.tracer.Ranks(); r++ {
		if n := pr.tracer.Dropped(r); n > 0 {
			return nil, fmt.Errorf("rank %d overwrote %d trace events; raise traceCapacity", r, n)
		}
	}
	m := map[string]float64{}

	// seq: every read any layer made through the store.
	m["seq.open_s"] = pr.openS
	m["seq.write_mb"] = float64(pr.diskB) / mib
	m["seq.reads"] = float64(pr.store.reads.Load())
	m["seq.read_mb"] = float64(pr.store.bytes.Load()) / mib
	m["seq.read_s"] = time.Duration(pr.store.ns.Load()).Seconds()
	m["seq.cache_hit_ratio"] = 1 // the in-memory store serves every read
	if pr.cacheH+pr.cacheM > 0 {
		m["seq.cache_hit_ratio"] = float64(pr.cacheH) / float64(pr.cacheH+pr.cacheM)
	}

	// pgst and cluster: phase spans, one per rank and phase.
	gst := map[int]obs.PhaseSpan{}
	clu := map[int]obs.PhaseSpan{}
	var masterComp, redistS, pairgenS, alignS float64
	for _, s := range pr.tracer.Spans() {
		switch s.Phase {
		case obs.PhaseGST:
			gst[s.Rank] = s
		case obs.PhaseCluster:
			clu[s.Rank] = s
		case obs.PhaseMaster:
			masterComp = s.CompSeconds
		case obs.PhaseGSTRedist:
			redistS += s.WallSeconds()
		case obs.PhasePairGen:
			pairgenS += s.WallSeconds()
		case obs.PhaseAlign:
			alignS += s.WallSeconds()
		}
	}
	var gstWall, gstModel, cluWall, cluModel float64
	for _, s := range gst {
		gstWall = max(gstWall, s.WallSeconds())
		gstModel = max(gstModel, s.Modeled())
	}
	for _, s := range clu {
		cluWall = max(cluWall, s.WallSeconds())
		cluModel = max(cluModel, s.Modeled())
	}
	idle := 0.0
	for _, s := range clu {
		idle += (cluModel - s.Modeled()) / cluModel
	}
	m["pgst.host_s"] = gstWall
	m["pgst.modeled_s"] = gstModel
	m["pgst.redistribute_s"] = redistS
	m["pairgen.host_s"] = pairgenS
	m["align.host_s"] = alignS
	m["cluster.host_s"] = cluWall
	m["cluster.modeled_s"] = cluModel
	m["cluster.idle_frac"] = idle / float64(len(clu))
	m["cluster.master_avail"] = 1 - masterComp/cluModel
	m["cluster.aligned"] = float64(o.result.Stats.Aligned)

	gstMsgs, gstBytes, masterMsgs := phaseTraffic(pr.tracer)
	m["pgst.msgs"] = float64(gstMsgs)
	m["pgst.mb"] = float64(gstBytes) / mib
	m["cluster.master_msgs"] = float64(masterMsgs)

	// par: the whole machine's traffic.
	var msgs, bytes, retx int
	if o.rankSt != nil {
		for _, st := range o.rankSt {
			msgs += st.MsgsSent
			bytes += st.BytesSent
			retx += st.Retransmits
		}
	} else {
		for _, a := range []par.Aggregate{o.phases.GST, o.phases.Cluster} {
			msgs += a.TotalMsgs
			bytes += a.TotalBytes
			retx += a.TotalRetransmits
		}
	}
	m["par.msgs"] = float64(msgs)
	m["par.mb"] = float64(bytes) / mib
	m["par.retransmits"] = float64(retx)

	// nettrans: envelopes that crossed a socket (none in process).
	var dl, dlB, dlNs int64
	for _, l := range pr.links {
		dl += l.delivers.Load()
		dlB += l.bytes.Load()
		dlNs += l.ns.Load()
	}
	m["nettrans.delivers"] = float64(dl)
	m["nettrans.deliver_s"] = time.Duration(dlNs).Seconds()
	m["nettrans.mb"] = float64(dlB) / mib
	return m, nil
}

// phaseTraffic walks each rank's events and counts the messages and
// bytes sent inside the GST phase, and the messages rank 0 received
// inside the clustering phase.
func phaseTraffic(tr *obs.Tracer) (gstMsgs, gstBytes, masterMsgs int64) {
	for r := 0; r < tr.Ranks(); r++ {
		var inGST, inCluster bool
		for _, e := range tr.Events(r) {
			switch e.Kind {
			case obs.EvPhaseEnter, obs.EvPhaseExit:
				on := e.Kind == obs.EvPhaseEnter
				switch e.A {
				case obs.PhaseGST:
					inGST = on
				case obs.PhaseCluster:
					inCluster = on
				}
			case obs.EvSendEnd, obs.EvSsendEnd:
				if inGST {
					gstMsgs++
					gstBytes += e.C
				}
			case obs.EvRecvEnd:
				if r == 0 && inCluster && e.C >= 0 {
					masterMsgs++
				}
			}
		}
	}
	return gstMsgs, gstBytes, masterMsgs
}

// decomposition is the serial, single-threaded run of the same problem
// through each layer's public functions in cluster.Serial's order.
type decomposition struct {
	metrics map[string]float64
	labels  []int
	// exact work counts that must repeat from run to run
	chars, pairs, cells int64
}

// decompose runs preprocessing, the bucketed suffix-tree build, pair
// generation, alignment, union–find and assembly one after another on
// one thread, timing each layer's own work.
func (w workload) decompose(in *input) (*decomposition, error) {
	m := map[string]float64{}
	t := time.Now()
	frags, pst := preprocess.Run(in.reads, in.pre)
	preS := time.Since(t).Seconds()
	m["preprocess.s"] = preS
	m["preprocess.kbp_per_s"] = float64(pst.BasesBefore) / 1e3 / preS
	m["preprocess.masked_frac"] = float64(pst.MaskedBases) / float64(pst.BasesBefore)

	// The baseline reads from memory; the workload's own store shows
	// up in the parallel run's seq metrics and the segment count.
	store := seq.NewStore(frags)
	cfg := w.cluster

	// suffixtree: what suffixtree.Build does, counted. Each BucketKey
	// call examines the w-prefix of one suffix.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t = time.Now()
	acc := func(sid int32) []byte { return store.Seq(int(sid)) }
	sids := make([]int32, store.NumSeqs())
	for i := range sids {
		sids[i] = int32(i)
	}
	sufs := suffixtree.EnumerateSuffixes(acc, sids, cfg.Psi)
	type keyed struct {
		key seq.Kmer
		suf suffixtree.Suffix
	}
	ks := make([]keyed, 0, len(sufs))
	for _, sf := range sufs {
		if key, ok := suffixtree.BucketKey(acc(sf.Sid), int(sf.Pos), cfg.W); ok {
			ks = append(ks, keyed{key, sf})
		}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	ib := suffixtree.NewIncrementalBuilder(cfg.W)
	bucket := make([]suffixtree.Suffix, 0, 64)
	for lo := 0; lo < len(ks); {
		hi := lo
		for hi < len(ks) && ks[hi].key == ks[lo].key {
			hi++
		}
		bucket = bucket[:0]
		for i := lo; i < hi; i++ {
			bucket = append(bucket, ks[i].suf)
		}
		ib.AddBucket(acc, bucket)
		lo = hi
	}
	tree := ib.Tree()
	buildS := time.Since(t).Seconds()
	runtime.ReadMemStats(&ms1)
	chars := int64(len(sufs))*int64(cfg.W) + ib.Work()
	m["suffixtree.suffixes"] = float64(len(sufs))
	m["suffixtree.chars"] = float64(chars)
	m["suffixtree.build_s"] = buildS
	m["suffixtree.chars_per_s"] = float64(chars) / buildS
	m["suffixtree.nodes"] = float64(tree.NumNodes())
	m["suffixtree.allocs"] = float64(ms1.Mallocs - ms0.Mallocs)

	// pgst: segments of the spilled build on the workload's store (1
	// when the tree fits the budget).
	segments := 1
	if cfg.MemBudget > 0 {
		ws, _, done, err := w.openStore(frags)
		if err != nil {
			return nil, err
		}
		segments = 0
		pgst.SweepSerial(ws, pgst.Config{W: cfg.W, MinLen: cfg.Psi, SpillBytes: cfg.MemBudget},
			func(*suffixtree.Tree) bool { segments++; return true })
		done()
	}
	m["pgst.segments"] = float64(segments)

	// pairgen, align, unionfind: cluster.Serial's loop with each
	// layer's calls timed; pair generation's self time is the rest.
	n := int32(store.N())
	uf := unionfind.New(store.N())
	var generated, skipped, aligned, accepted, ufOps, cells int64
	var ufNs, alignNs int64
	t = time.Now()
	pairgen.Generate(tree, pairgen.Config{
		Psi: cfg.Psi, NumFragments: store.N(), DuplicateElimination: cfg.DuplicateElimination,
	}, func(p pairgen.Pair) bool {
		generated++
		fa, fb := int(p.ASid%n), int(p.BSid%n)
		t0 := time.Now()
		same := uf.Same(fa, fb)
		ufOps++
		t1 := time.Now()
		ufNs += int64(t1.Sub(t0))
		if same {
			skipped++
			return true
		}
		ok, c := cluster.AlignPair(store, p, cfg)
		t2 := time.Now()
		alignNs += int64(t2.Sub(t1))
		aligned++
		cells += c
		if ok {
			accepted++
			uf.Union(fa, fb)
			ufOps++
			ufNs += int64(time.Since(t2))
		}
		return true
	})
	loopS := time.Since(t).Seconds()
	alignS := time.Duration(alignNs).Seconds()
	ufS := time.Duration(ufNs).Seconds()
	pairS := loopS - alignS - ufS
	m["pairgen.s"] = pairS
	m["pairgen.pairs"] = float64(generated)
	m["pairgen.pairs_per_s"] = float64(generated) / pairS
	m["align.calls"] = float64(aligned)
	m["align.cells"] = float64(cells)
	m["align.s"] = alignS
	m["align.cells_per_s"] = float64(cells) / alignS
	m["align.accept_ratio"] = float64(accepted) / float64(aligned)
	m["unionfind.ops"] = float64(ufOps)
	m["unionfind.s"] = ufS
	m["unionfind.savings"] = float64(skipped) / float64(generated)
	m["cluster.serial_aligned"] = float64(aligned)

	// assembly on one thread.
	res := &cluster.Result{N: store.N(), UF: uf}
	clusters := res.Clusters()
	t = time.Now()
	contigs := assembly.AssembleAll(store, clusters, assembly.DefaultConfig(), 1)
	asmS := time.Since(t).Seconds()
	var nContigs, maxCluster, asmBases int
	for i, c := range clusters {
		nContigs += len(contigs[i])
		maxCluster = max(maxCluster, len(c))
		for _, f := range c {
			asmBases += store.SeqLen(f)
		}
	}
	m["assembly.s"] = asmS
	m["assembly.clusters"] = float64(len(clusters))
	m["assembly.max_cluster"] = float64(maxCluster)
	m["assembly.contigs"] = float64(nContigs)
	m["assembly.kbp_per_s"] = float64(asmBases) / 1e3 / asmS

	return &decomposition{
		metrics: m,
		labels:  cluster.PartitionLabels(res),
		chars:   chars,
		pairs:   generated,
		cells:   cells,
	}, nil
}
