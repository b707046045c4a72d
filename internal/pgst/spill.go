// Spilling construction: the out-of-core GST mode (Config.SpillBytes).
//
// Bucket-by-w-prefix already makes the tree a forest of independent
// subtrees, so nothing ever requires the whole tree in memory: pair
// generation is a per-bucket computation (Section 5). The spilling
// build therefore never materializes a rank's full forest. Instead it
// partitions the key space into contiguous *segments* sized so one
// segment's suffixes fit the byte budget (estimated from a streaming
// key histogram), and the consumer sweeps: build one segment's forest
// from a filtered re-enumeration of the store, generate its pairs,
// drop it, move on. Combined with the disk-backed sequence store the
// resident set is O(budget + cache), independent of input size.
//
// The filtered re-enumeration is the same mechanism the fault-recovery
// path (rebuildInto) already uses and proves equivalent: the union of
// segment forests carries exactly the suffixes of a monolithic build,
// and each bucket lands whole in exactly one segment, so the forest
// union — and therefore the generated pair set — is identical.
package pgst

import (
	"slices"

	"repro/internal/par"
	"repro/internal/seq"
	"repro/internal/suffixtree"
)

const (
	// spillBytesPerSuffix estimates the resident bytes one suffix costs
	// while its segment is being built and generated: the keyed record
	// (16), its sorted-slice and bucket slots (~24), amortized tree
	// nodes (~24), and pair-generation lset cells (~32).
	spillBytesPerSuffix = 96
	// spillMaxBinBits caps the segment-planning histogram at 16K bins
	// (128 KiB of counters) regardless of W.
	spillMaxBinBits = 14
)

// SpillState marks a Local built in spilling mode: no resident Tree;
// instead the covered owner ranks' key ranges are swept on demand.
type SpillState struct {
	// Ranks are the owner ranks whose key ranges this rank sweeps: its
	// own, plus any dead ranks the FT epilogue assigned to it.
	Ranks []int
}

// spillBinBits returns the histogram resolution for prefix length w.
func spillBinBits(w int) uint {
	bits := 2 * w
	if bits > spillMaxBinBits {
		bits = spillMaxBinBits
	}
	return uint(bits)
}

// spillBinShift maps a key to its histogram bin: bins are contiguous,
// order-preserving ranges of the packed key space.
func spillBinShift(w int) uint { return uint(2*w) - spillBinBits(w) }

// enumKeys streams every suffix key of sequences [sidLo, sidHi) that
// passes keep (nil: all), in deterministic (sid, pos) order, without
// retaining anything. Returns the characters examined.
func enumKeys(st seq.Seqs, sidLo, sidHi int, cfg Config, keep func(seq.Kmer) bool, fn func(seq.Kmer)) int64 {
	var chars int64
	for sid := sidLo; sid < sidHi; sid++ {
		s := st.Seq(sid)
		chars += int64(len(s))
		sufs := suffixtree.EnumerateSuffixes(
			func(int32) []byte { return s }, []int32{int32(sid)}, cfg.MinLen)
		for _, sf := range sufs {
			if key, ok := suffixtree.BucketKey(s, int(sf.Pos), cfg.W); ok {
				if keep == nil || keep(key) {
					fn(key)
				}
			}
		}
	}
	return chars
}

// spillSegment is a contiguous histogram-bin range [loBin, hiBin).
type spillSegment struct{ loBin, hiBin int }

// contains reports whether key falls in the segment.
func (g spillSegment) contains(key seq.Kmer, shift uint) bool {
	bin := int(key >> shift)
	return bin >= g.loBin && bin < g.hiBin
}

// planSpillSegments greedily packs histogram bins into segments whose
// estimated bytes stay under budget. A single bin denser than the
// whole budget still forms its own segment — the bin is the planning
// granule, so the budget is honored up to one bin's excess (documented
// in DESIGN.md §15; raise W or the budget if a single 2w-prefix
// dominates the input).
func planSpillSegments(hist []int64, budget int64) []spillSegment {
	maxSuf := budget / spillBytesPerSuffix
	if maxSuf < 1 {
		maxSuf = 1
	}
	var segs []spillSegment
	lo := 0
	var acc int64
	for b := 0; b < len(hist); b++ {
		if acc > 0 && acc+hist[b] > maxSuf {
			segs = append(segs, spillSegment{lo, b})
			lo, acc = b, 0
		}
		acc += hist[b]
	}
	if acc > 0 {
		segs = append(segs, spillSegment{lo, len(hist)})
	}
	return segs
}

// buildFiltered re-enumerates every suffix of the store, keeps those
// whose key passes keep, and builds their buckets into ib — the shared
// core of fault recovery (rebuildInto) and segment sweeping. Returns
// bucket/suffix counts and the modeled compute cost.
func buildFiltered(ib *suffixtree.IncrementalBuilder, st seq.Seqs, cfg Config, keep func(seq.Kmer) bool) (nbuckets, nsuf int, cost float64) {
	var mine []keyedSuffix
	var chars int64
	for sid := 0; sid < st.NumSeqs(); sid++ {
		s := st.Seq(sid)
		chars += int64(len(s))
		sufs := suffixtree.EnumerateSuffixes(
			func(int32) []byte { return s }, []int32{int32(sid)}, cfg.MinLen)
		for _, sf := range sufs {
			if key, ok := suffixtree.BucketKey(s, int(sf.Pos), cfg.W); ok && keep(key) {
				mine = append(mine, keyedSuffix{key, sf})
			}
		}
	}
	slices.SortFunc(mine, byKey)
	cost = float64(chars)*costChar +
		float64(len(mine))*(costSuf+log2f(len(mine))*costSort)

	access := memoAccess(st, 256)
	before := ib.Work()
	var bucket []suffixtree.Suffix
	for lo := 0; lo < len(mine); {
		hi := lo
		for hi < len(mine) && mine[hi].key == mine[lo].key {
			hi++
		}
		bucket = bucket[:0]
		for i := lo; i < hi; i++ {
			bucket = append(bucket, mine[i].suf)
		}
		ib.AddBucket(access, bucket)
		nbuckets++
		lo = hi
	}
	cost += float64(ib.Work()-before) * costChar
	return nbuckets, len(mine), cost
}

// memoAccess wraps st.Seq in a bounded memo so tree construction —
// which resolves one sequence per suffix, bucket after bucket — does
// not re-decode a disk-backed sequence each time a nearby bucket holds
// another of its suffixes. The memo resets past maxEntries, keeping
// resident decoded bases bounded.
func memoAccess(st seq.Seqs, maxEntries int) suffixtree.Access {
	m := make(map[int32][]byte, maxEntries)
	return func(sid int32) []byte {
		if b, ok := m[sid]; ok {
			return b
		}
		if len(m) >= maxEntries {
			m = make(map[int32][]byte, maxEntries)
		}
		b := st.Seq(int(sid))
		m[sid] = b
		return b
	}
}

// sweepFiltered plans segments for the keys passing own and yields one
// forest per segment, building and dropping them in turn. Returns
// false if yield stopped the sweep.
func sweepFiltered(st seq.Seqs, cfg Config, own func(seq.Kmer) bool, yield func(*suffixtree.Tree) bool) bool {
	shift := spillBinShift(cfg.W)
	hist := make([]int64, 1<<spillBinBits(cfg.W))
	enumKeys(st, 0, st.NumSeqs(), cfg, own, func(k seq.Kmer) { hist[k>>shift]++ })
	for _, sg := range planSpillSegments(hist, cfg.SpillBytes) {
		keep := func(k seq.Kmer) bool {
			return sg.contains(k, shift) && (own == nil || own(k))
		}
		ib := suffixtree.NewIncrementalBuilder(cfg.W)
		buildFiltered(ib, st, cfg, keep)
		if !yield(ib.Tree()) {
			return false
		}
	}
	return true
}

// SweepSerial builds the store's full GST in bounded segments, calling
// yield with each segment's forest in ascending key order; the forest
// is dropped after yield returns. The union of yielded forests is
// identical to BuildSerialTree's content — consume-and-drop is what
// makes serial clustering run in O(SpillBytes) tree memory.
func SweepSerial(st seq.Seqs, cfg Config, yield func(*suffixtree.Tree) bool) {
	cfg = cfg.withDefaults()
	sweepFiltered(st, cfg, nil, yield)
}

// SweepRank builds, in bounded segments, the forest of the buckets the
// splitter partition assigned to owner rank r — this rank's own range,
// or a dead rank's range during adoption. Returns false if yield
// stopped the sweep.
func (l *Local) SweepRank(st seq.Seqs, r int, yield func(*suffixtree.Tree) bool) bool {
	own := func(k seq.Kmer) bool {
		return destOf(l.Splitters, k, l.Cfg.FirstOwner) == r
	}
	return sweepFiltered(st, l.Cfg, own, yield)
}

// sampleOwnerKeys draws perRank evenly spaced suffix keys from owner
// rank me's fragment range in two streaming passes (count, then
// collect) — the spilling substitute for sampling the materialized
// enumeration. Returns sorted keys and the characters examined.
func sampleOwnerKeys(st seq.Seqs, bounds []int, me int, cfg Config, perRank int) ([]seq.Kmer, int64) {
	n := st.N()
	sidRanges := [2][2]int{{bounds[me], bounds[me+1]}, {bounds[me] + n, bounds[me+1] + n}}
	var cnt int64
	var chars int64
	for _, r := range sidRanges {
		chars += enumKeys(st, r[0], r[1], cfg, nil, func(seq.Kmer) { cnt++ })
	}
	if cnt == 0 {
		return nil, chars
	}
	if int64(perRank) > cnt {
		perRank = int(cnt)
	}
	keys := make([]seq.Kmer, 0, perRank)
	var idx, next int64
	step := cnt / int64(perRank)
	for _, r := range sidRanges {
		chars += enumKeys(st, r[0], r[1], cfg, nil, func(k seq.Kmer) {
			if idx == next && len(keys) < perRank {
				keys = append(keys, k)
				next += step
			}
			idx++
		})
	}
	slices.Sort(keys)
	return keys, chars
}

// buildSpill is Build's spilling mode: agree on splitters from
// streamed samples, then return immediately — no enumeration is
// retained, no suffixes are exchanged, no tree is resident. Each rank
// sweeps its own key range (plus any adopted dead ranks') lazily via
// SweepRank; every rank reads the shared store directly, so the
// redistribution and fragment-fetch collectives of the in-memory path
// have nothing to move.
func buildSpill(c *par.Comm, st seq.Seqs, cfg Config, bounds []int, owners int) *Local {
	var samples []keyedSuffix
	if me := c.Rank() - cfg.FirstOwner; me >= 0 {
		keys, chars := sampleOwnerKeys(st, bounds, me, cfg, 64)
		c.ChargeCompute(float64(chars) * costChar)
		for _, k := range keys {
			samples = append(samples, keyedSuffix{key: k})
		}
	}
	splitters := chooseSplitters(c, samples, owners, cfg)

	l := &Local{
		Splitters: splitters,
		Cfg:       cfg,
		Spill:     &SpillState{},
	}
	if c.Rank() >= cfg.FirstOwner {
		l.Spill.Ranks = []int{c.Rank()}
	}
	// FT epilogue: adopt dead owners' ranges by recording them for the
	// sweep — recovery is a deferred re-enumeration, exactly like
	// rebuildInto, but it stays within the byte budget.
	if cfg.FT {
		for _, dead := range recoverAssignments(c, cfg.FirstOwner, cfg.FTPoll) {
			if dead != c.Rank() {
				l.Spill.Ranks = append(l.Spill.Ranks, dead)
			}
		}
	}
	return l
}
