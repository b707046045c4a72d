// Package pgst implements the paper's parallel generalized suffix tree
// construction (Section 6). Each rank enumerates the suffixes of its
// fragment share, suffixes are sorted into w-prefix buckets and
// redistributed so every rank owns a load-balanced set of whole
// buckets, and each rank then builds its bucket subtrees depth-first —
// fetching the fragments a batch of buckets needs through two
// collective communication steps per batch, so per-rank space stays
// O(N/p) instead of O(min(N·l/p, N)).
//
// Bucket-to-rank assignment uses sample sort splitters over the packed
// w-prefix keys: a bucket's suffixes all share one key, so a range
// partition of the key space keeps buckets whole while balancing
// suffix counts (the paper's load-balanced redistribution).
package pgst

import (
	"cmp"
	"math/rand"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/seq"
	"repro/internal/suffixtree"
	"repro/internal/wire"
)

// Modeled per-operation costs, BlueGene/L-flavored (a ~700 MHz node
// spends a few nanoseconds per simple operation). Absolute values set
// the time scale; the scaling shapes come from the algorithm.
const (
	costChar = 4e-9  // per character examined (scan, pack, trie build)
	costSort = 25e-9 // per element per comparison level (n·log₂n total)
	costSuf  = 30e-9 // per suffix record handled (bucket, encode, decode)
)

// Config parameterizes construction.
type Config struct {
	// W is the bucket prefix length (paper: 11 for maize-scale data;
	// scaled down with input size here).
	W int
	// MinLen skips suffixes shorter than this (set it to ψ: shorter
	// suffixes cannot carry a qualifying maximal match).
	MinLen int
	// FirstOwner is the lowest rank that owns buckets: 0 normally, 1
	// under the master–worker clustering where rank 0 holds no tree.
	FirstOwner int
	// BatchBytes bounds the fragment bytes fetched per construction
	// batch (per-rank Θ(N/p) space); default 1 MiB.
	BatchBytes int
	// Staged selects the customized Alltoallv (p−1 pairwise exchanges)
	// for the redistribution and fetch steps.
	Staged bool
	// Seed for splitter sampling.
	Seed int64
	// FT selects the fault-tolerant build: collectives poll with
	// deadlines and skip dead ranks, exchanges lost to a mid-build rank
	// death are re-enumerated by survivors from the fragments they
	// already hold, and dead ranks' bucket ranges are rebuilt whole by
	// designated survivors — so the union of the surviving per-bucket
	// tries is identical to a fault-free build. FT assumes rank 0
	// survives (the clustering master's role). Staged exchanges are
	// not fault-tolerant; FT forces the eager Alltoallv.
	FT bool
	// FTPoll is the poll interval of the fault-tolerant collectives
	// (default 10ms).
	FTPoll time.Duration
	// SpillBytes, when positive, selects the out-of-core build: no
	// rank ever materializes its full forest. Construction only agrees
	// on splitters; the owned key range is swept later in contiguous
	// segments whose estimated resident bytes stay under this budget,
	// each segment's forest built, consumed and dropped (see spill.go).
	// The union of swept forests is identical to the in-memory build.
	SpillBytes int64
}

func (c Config) withDefaults() Config {
	if c.BatchBytes == 0 {
		c.BatchBytes = 1 << 20
	}
	if c.MinLen < c.W {
		c.MinLen = c.W
	}
	if c.FTPoll == 0 {
		c.FTPoll = 10 * time.Millisecond
	}
	if c.FT {
		c.Staged = false
	}
	return c
}

// Local is one rank's part of the distributed GST.
type Local struct {
	Tree *suffixtree.Tree
	// Buckets is the number of buckets this rank built.
	Buckets int
	// SuffixesOwned is the number of suffixes in this rank's buckets.
	SuffixesOwned int
	// FetchRounds is the number of batched fragment-fetch rounds.
	FetchRounds int
	// Splitters is the agreed bucket-to-rank partition of the key
	// space; every rank holds the same copy, so any survivor can
	// recompute which buckets a dead rank owned (fault recovery).
	Splitters []seq.Kmer
	// Cfg is the construction configuration after defaulting, kept so
	// a portion can be rebuilt later with identical parameters.
	Cfg Config
	// Spill is non-nil for a spilling build (Cfg.SpillBytes > 0): Tree
	// is nil and the covered ranks' key ranges are swept on demand via
	// SweepRank instead.
	Spill *SpillState
}

// ownerBounds partitions fragment IDs contiguously so each owner rank
// holds roughly equal base counts; bounds[i] is the first fragment of
// owner i (bounds has owners+1 entries). Every rank computes the same
// partition, so fragment ownership is an O(1)–O(log p) lookup — the
// paper's "recalling the initial distribution".
func ownerBounds(st seq.Seqs, owners int) []int {
	bounds := make([]int, owners+1)
	total := st.TotalBases()
	per := total/owners + 1
	fid, acc := 0, 0
	for r := 0; r < owners; r++ {
		bounds[r] = fid
		want := (r + 1) * per
		for fid < st.N() && acc < want {
			acc += st.SeqLen(fid)
			fid++
		}
	}
	bounds[owners] = st.N()
	return bounds
}

func ownerOf(bounds []int, fid int) int {
	// bounds is ascending; find r with bounds[r] ≤ fid < bounds[r+1].
	lo, hi := 0, len(bounds)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if bounds[mid] <= fid {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

type keyedSuffix struct {
	key seq.Kmer
	suf suffixtree.Suffix
}

func byKey(a, b keyedSuffix) int { return cmp.Compare(a.key, b.key) }

// enumerateOwner enumerates and keys the suffixes of owner rank me's
// fragment range (both orientations), keeping only keys for which keep
// returns true (nil: keep everything). Returns the kept suffixes and
// the character count examined, so callers can charge the work. Every
// rank holds the full store, so any survivor can re-run a dead rank's
// enumeration — the redundancy the fault-tolerant build recovers from.
func enumerateOwner(st seq.Seqs, bounds []int, me int, cfg Config, keep func(seq.Kmer) bool) ([]keyedSuffix, int64) {
	n := st.N()
	var out []keyedSuffix
	var chars int64
	for fid := bounds[me]; fid < bounds[me+1]; fid++ {
		for _, sid := range [2]int32{int32(fid), int32(fid + n)} {
			s := st.Seq(int(sid))
			chars += int64(len(s))
			sufs := suffixtree.EnumerateSuffixes(
				func(int32) []byte { return s }, []int32{sid}, cfg.MinLen)
			for _, sf := range sufs {
				if key, ok := suffixtree.BucketKey(s, int(sf.Pos), cfg.W); ok {
					if keep == nil || keep(key) {
						out = append(out, keyedSuffix{key, sf})
					}
				}
			}
		}
	}
	return out, chars
}

// Build constructs this rank's portion of the distributed GST. All
// ranks of the communicator must call it collectively.
func Build(c *par.Comm, st seq.Seqs, cfg Config) *Local {
	cfg = cfg.withDefaults()
	p := c.Size()
	owners := p - cfg.FirstOwner
	if owners < 1 {
		panic("pgst: no owner ranks")
	}
	bounds := ownerBounds(st, owners)

	// Out-of-core mode: agree on splitters from streamed samples and
	// defer all tree construction to bounded segment sweeps.
	if cfg.SpillBytes > 0 {
		return buildSpill(c, st, cfg, bounds, owners)
	}

	// Phase 1: enumerate and key the suffixes of this rank's fragments
	// (both orientations). Ranks below FirstOwner hold no fragments.
	var local []keyedSuffix
	if me := c.Rank() - cfg.FirstOwner; me >= 0 {
		var chars int64
		local, chars = enumerateOwner(st, bounds, me, cfg, nil)
		c.ChargeCompute(float64(chars)*costChar + float64(len(local))*costSuf)
	}

	// Phase 2: sort local suffixes by key and agree on splitters.
	slices.SortFunc(local, byKey)
	c.ChargeCompute(float64(len(local)) * log2f(len(local)) * costSort)
	splitters := chooseSplitters(c, local, owners, cfg)

	// Phase 3: redistribute suffixes so each bucket lands whole on its
	// owner rank. Under FT, exchanges severed by a rank death are
	// re-enumerated locally from the full store.
	c.TraceEvent(obs.EvPhaseEnter, obs.PhaseGSTRedist, 0, 0)
	mine := redistribute(c, st, local, splitters, bounds, cfg)
	c.TraceEvent(obs.EvPhaseExit, obs.PhaseGSTRedist, 0, 0)
	slices.SortFunc(mine, byKey)
	c.ChargeCompute(float64(len(mine)) * log2f(len(mine)) * costSort)

	// Phase 4: split into buckets and plan fetch batches. Buckets are
	// disjoint windows of one suffix array.
	sufs := make([]suffixtree.Suffix, len(mine))
	for i := range mine {
		sufs[i] = mine[i].suf
	}
	var buckets [][]suffixtree.Suffix
	var keys []seq.Kmer
	for lo := 0; lo < len(mine); {
		hi := lo
		for hi < len(mine) && mine[hi].key == mine[lo].key {
			hi++
		}
		buckets = append(buckets, sufs[lo:hi:hi])
		keys = append(keys, mine[lo].key)
		lo = hi
	}
	batches := planBatches(st, buckets, cfg.BatchBytes)
	var rounds int
	if cfg.FT {
		rounds = int(c.FTAllreduce(int64(len(batches)), par.Max, cfg.FTPoll))
	} else {
		rounds = int(c.Allreduce(int64(len(batches)), par.Max))
	}

	// Phase 5: per batch, fetch the needed fragments with two
	// collective steps (request, serve), then build the subtrees.
	ib := suffixtree.NewIncrementalBuilder(cfg.W)
	var prevWork int64
	for round := 0; round < rounds; round++ {
		var batch []int
		if round < len(batches) {
			batch = batches[round]
		}
		c.TraceEvent(obs.EvPhaseEnter, obs.PhaseGSTFetch, int64(round), 0)
		cache := fetchFragments(c, st, buckets, batch, bounds, cfg)
		c.TraceEvent(obs.EvPhaseExit, obs.PhaseGSTFetch, int64(round), 0)
		access := cacheAccess(st, cache, cfg.FT)
		for _, bi := range batch {
			ib.AddBucket(access, buckets[bi])
		}
		c.ChargeCompute(float64(ib.Work()-prevWork) * costChar)
		prevWork = ib.Work()
	}

	nsuf := 0
	for _, b := range buckets {
		nsuf += len(b)
	}
	nbuckets := len(buckets)

	// FT epilogue: agree on which owner ranks died at any point during
	// construction and rebuild their whole bucket ranges on designated
	// survivors, so the union of surviving tries matches a fault-free
	// build exactly.
	if cfg.FT {
		for _, dead := range recoverAssignments(c, cfg.FirstOwner, cfg.FTPoll) {
			nb, ns, cost := rebuildInto(ib, st, splitters, cfg, dead)
			nbuckets += nb
			nsuf += ns
			c.ChargeCompute(cost)
		}
	}

	return &Local{
		Tree:          ib.Tree(),
		Buckets:       nbuckets,
		SuffixesOwned: nsuf,
		FetchRounds:   rounds,
		Splitters:     splitters,
		Cfg:           cfg,
	}
}

// RebuildPortion reconstructs, on the calling rank, the GST portion
// that the bucket partition assigned to rank dead. It is the fault
// recovery path: the splitters every rank retained determine exactly
// which w-prefix buckets the dead rank owned, and since every rank can
// read the full store, a survivor re-enumerates all suffixes, keeps
// the dead rank's share, and builds those subtrees locally. The
// result generates exactly the pairs the dead rank's tree would have
// (pair generation is a per-bucket computation).
//
// This is a local (non-collective) operation; its computation is
// charged to the calling rank, modeling the recovery cost.
func RebuildPortion(c *par.Comm, st seq.Seqs, local *Local, dead int) *suffixtree.Tree {
	ib := suffixtree.NewIncrementalBuilder(local.Cfg.W)
	_, _, cost := rebuildInto(ib, st, local.Splitters, local.Cfg, dead)
	c.ChargeCompute(cost)
	return ib.Tree()
}

func log2f(n int) float64 {
	if n < 2 {
		return 1
	}
	l := 0.0
	for v := n; v > 1; v >>= 1 {
		l++
	}
	return l
}

// chooseSplitters gathers evenly spaced key samples at rank 0, sorts
// them, and broadcasts owners−1 splitters. Under FT a dead rank simply
// contributes no samples — the splitters steer only the bucket→rank
// partition, never the union of bucket contents, so equivalence with a
// fault-free build is unaffected.
func chooseSplitters(c *par.Comm, local []keyedSuffix, owners int, cfg Config) []seq.Kmer {
	const perRank = 64
	rng := rand.New(rand.NewSource(cfg.Seed + int64(c.Rank())))
	w := wire.NewBuffer(perRank * 9)
	if len(local) > 0 {
		for i := 0; i < perRank; i++ {
			// Evenly spaced with jitter over the sorted local keys.
			idx := i * len(local) / perRank
			idx += rng.Intn(len(local)/perRank + 1)
			if idx >= len(local) {
				idx = len(local) - 1
			}
			w.PutUint(uint64(local[idx].key))
		}
	}
	var gathered [][]byte
	if cfg.FT {
		gathered, _ = c.FTGather(0, w.Bytes(), cfg.FTPoll)
	} else {
		gathered = c.Gather(0, w.Bytes())
	}
	var enc []byte
	if c.Rank() == 0 {
		var samples []seq.Kmer
		for _, buf := range gathered {
			r := wire.NewReader(buf)
			for r.Remaining() > 0 {
				samples = append(samples, seq.Kmer(r.Uint()))
			}
		}
		slices.Sort(samples)
		out := wire.NewBuffer((owners - 1) * 9)
		for i := 1; i < owners; i++ {
			idx := i * len(samples) / owners
			if len(samples) == 0 {
				break
			}
			if idx >= len(samples) {
				idx = len(samples) - 1
			}
			out.PutUint(uint64(samples[idx]))
		}
		enc = out.Bytes()
	}
	if cfg.FT {
		enc = c.FTBcast(0, enc, cfg.FTPoll)
	} else {
		enc = c.Bcast(0, enc)
	}
	var splitters []seq.Kmer
	r := wire.NewReader(enc)
	for r.Remaining() > 0 {
		splitters = append(splitters, seq.Kmer(r.Uint()))
	}
	return splitters
}

// destOf maps a bucket key to its owner rank.
func destOf(splitters []seq.Kmer, key seq.Kmer, firstOwner int) int {
	// First splitter index with splitter > key.
	lo, hi := 0, len(splitters)
	for lo < hi {
		mid := (lo + hi) / 2
		if splitters[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return firstOwner + lo
}

// redistribute exchanges keyed suffixes so each lands on its bucket's
// owner rank. Under FT a rank death mid-exchange is detected through
// the poll deadlines; the survivors agree on the set of severed
// sources and each re-enumerates those ranks' fragment ranges from its
// own full copy of the store, keeping the keys it owns — so its bucket
// contents end up identical to a fault-free exchange.
func redistribute(c *par.Comm, st seq.Seqs, local []keyedSuffix, splitters []seq.Kmer, bounds []int, cfg Config) []keyedSuffix {
	p := c.Size()
	bufs := make([]*wire.Buffer, p)
	for i := range bufs {
		bufs[i] = wire.NewBuffer(0)
	}
	for _, ks := range local {
		d := destOf(splitters, ks.key, cfg.FirstOwner)
		w := bufs[d]
		w.PutUint(uint64(ks.key))
		w.PutInt(int(ks.suf.Sid))
		w.PutInt(int(ks.suf.Pos))
		w.PutInt(int(ks.suf.Prev))
	}
	c.ChargeCompute(float64(len(local)) * costSuf)
	raw := make([][]byte, p)
	for i := range raw {
		raw[i] = bufs[i].Bytes()
	}
	var recv [][]byte
	var severed []int
	switch {
	case cfg.FT:
		var got []bool
		recv, got = c.FTAlltoallv(raw, cfg.FTPoll)
		severed = agreeSevered(c, got, cfg)
		// Discard partial data from severed sources: a rank that died
		// mid-exchange reached some destinations and not others, and
		// only a uniform re-enumeration keeps every survivor's view
		// consistent (no lost and no duplicated suffixes).
		for _, s := range severed {
			recv[s] = nil
		}
	case cfg.Staged:
		recv = c.AlltoallvStaged(raw)
	default:
		recv = c.Alltoallv(raw)
	}
	var mine []keyedSuffix
	for _, buf := range recv {
		r := wire.NewReader(buf)
		for r.Remaining() > 0 {
			key := seq.Kmer(r.Uint())
			sid := r.Int32()
			pos := r.Int32()
			prev := int8(r.Int())
			mine = append(mine, keyedSuffix{key, suffixtree.Suffix{Sid: sid, Pos: pos, Prev: prev}})
		}
	}
	// Recover the severed exchanges: replay each dead source's
	// enumeration locally, keeping only the keys this rank owns.
	for _, s := range severed {
		me := s - cfg.FirstOwner
		if me < 0 || s == c.Rank() {
			continue // non-owner ranks contribute no suffixes
		}
		rec, chars := enumerateOwner(st, bounds, me, cfg, func(k seq.Kmer) bool {
			return destOf(splitters, k, cfg.FirstOwner) == c.Rank()
		})
		mine = append(mine, rec...)
		c.ChargeCompute(float64(chars)*costChar + float64(len(rec))*costSuf)
	}
	c.ChargeCompute(float64(len(mine)) * costSuf)
	return mine
}

// agreeSevered merges every survivor's view of which alltoall sources
// went missing (rank 0 unions the reports and broadcasts the result),
// so all survivors recover the same set of exchanges.
func agreeSevered(c *par.Comm, got []bool, cfg Config) []int {
	w := wire.NewBuffer(8)
	for s, ok := range got {
		if !ok {
			w.PutInt(s)
		}
	}
	reports, reported := c.FTGather(0, w.Bytes(), cfg.FTPoll)
	var enc []byte
	if c.Rank() == 0 {
		miss := make(map[int]bool)
		for i, buf := range reports {
			if !reported[i] {
				// A rank that died after the exchange but before
				// reporting: its own buckets are handled by the
				// end-of-build rebuild, not here.
				continue
			}
			r := wire.NewReader(buf)
			for r.Remaining() > 0 {
				miss[r.Int()] = true
			}
		}
		out := wire.NewBuffer(2 * len(miss))
		var sorted []int
		for s := range miss {
			sorted = append(sorted, s)
		}
		slices.Sort(sorted)
		for _, s := range sorted {
			out.PutInt(s)
		}
		enc = out.Bytes()
	}
	enc = c.FTBcast(0, enc, cfg.FTPoll)
	r := wire.NewReader(enc)
	var severed []int
	for r.Remaining() > 0 {
		severed = append(severed, r.Int())
	}
	return severed
}

// planBatches groups bucket indices into batches whose distinct
// fragments total at most batchBytes.
func planBatches(st seq.Seqs, buckets [][]suffixtree.Suffix, batchBytes int) [][]int {
	n := st.N()
	var batches [][]int
	var cur []int
	seen := make(map[int32]bool)
	bytes := 0
	flush := func() {
		if len(cur) > 0 {
			batches = append(batches, cur)
			cur = nil
			seen = make(map[int32]bool)
			bytes = 0
		}
	}
	// contribution returns the new-fragment bytes bucket b adds over
	// the current seen set, without mutating it.
	contribution := func(b []suffixtree.Suffix) (int, []int32) {
		add := 0
		var fids []int32
		dup := make(map[int32]bool)
		for _, sf := range b {
			fid := sf.Sid % int32(n)
			if !seen[fid] && !dup[fid] {
				dup[fid] = true
				fids = append(fids, fid)
				add += st.SeqLen(int(fid))
			}
		}
		return add, fids
	}
	for bi, b := range buckets {
		add, fids := contribution(b)
		if bytes+add > batchBytes && len(cur) > 0 {
			flush()
			add, fids = contribution(b)
		}
		cur = append(cur, bi)
		for _, fid := range fids {
			seen[fid] = true
		}
		bytes += add
	}
	flush()
	return batches
}

// fetchFragments performs the two collective steps of one batch:
// request the owners of every fragment the batch's buckets reference,
// then receive their bases. Returns fid → forward bases.
func fetchFragments(c *par.Comm, st seq.Seqs, buckets [][]suffixtree.Suffix, batch []int, bounds []int, cfg Config) map[int32][]byte {
	p := c.Size()
	n := st.N()
	need := make(map[int32]bool)
	for _, bi := range batch {
		for _, sf := range buckets[bi] {
			need[sf.Sid%int32(n)] = true
		}
	}
	// Step 1: send request lists to owners.
	reqBufs := make([]*wire.Buffer, p)
	for i := range reqBufs {
		reqBufs[i] = wire.NewBuffer(0)
	}
	for fid := range need {
		owner := cfg.FirstOwner + ownerOf(bounds, int(fid))
		reqBufs[owner].PutInt(int(fid))
	}
	raw := make([][]byte, p)
	for i := range raw {
		raw[i] = reqBufs[i].Bytes()
	}
	var reqs [][]byte
	switch {
	case cfg.FT:
		reqs, _ = c.FTAlltoallv(raw, cfg.FTPoll)
	case cfg.Staged:
		reqs = c.AlltoallvStaged(raw)
	default:
		reqs = c.Alltoallv(raw)
	}
	// Step 2: serve the requests.
	respBufs := make([]*wire.Buffer, p)
	for i := range respBufs {
		respBufs[i] = wire.NewBuffer(0)
	}
	served := 0
	for src, buf := range reqs {
		r := wire.NewReader(buf)
		for r.Remaining() > 0 {
			fid := r.Int()
			respBufs[src].PutInt(fid)
			respBufs[src].PutBytes(st.Seq(fid))
			served++
		}
	}
	c.ChargeCompute(float64(served) * costSuf)
	for i := range raw {
		raw[i] = respBufs[i].Bytes()
	}
	var resps [][]byte
	switch {
	case cfg.FT:
		// A dead owner serves nothing; its fragments are read from the
		// local copy of the store via the cache-miss fallback.
		resps, _ = c.FTAlltoallv(raw, cfg.FTPoll)
	case cfg.Staged:
		resps = c.AlltoallvStaged(raw)
	default:
		resps = c.Alltoallv(raw)
	}
	cache := make(map[int32][]byte, len(need))
	for _, buf := range resps {
		r := wire.NewReader(buf)
		for r.Remaining() > 0 {
			fid := r.Int32()
			cache[fid] = r.Bytes()
		}
	}
	return cache
}

// cacheAccess builds the Access function for one batch: forward bases
// come from the fetched cache; reverse complements are derived on
// demand and memoized. With fallback (FT mode) a fragment a dead owner
// never served is read from the local copy of the store instead of
// panicking.
func cacheAccess(st seq.Seqs, cache map[int32][]byte, fallback bool) suffixtree.Access {
	n := int32(st.N())
	rcCache := make(map[int32][]byte)
	fetch := func(fid int32) []byte {
		b, ok := cache[fid]
		if !ok {
			if !fallback {
				panic("pgst: access to unfetched fragment")
			}
			b = st.Seq(int(fid))
		}
		return b
	}
	return func(sid int32) []byte {
		if sid < n {
			return fetch(sid)
		}
		if rc, ok := rcCache[sid]; ok {
			return rc
		}
		rc := seq.ReverseComplement(fetch(sid - n))
		rcCache[sid] = rc
		return rc
	}
}

// recoverAssignments is the FT epilogue's agreement step: rank 0
// gathers a liveness ping, pairs each dead owner rank with a surviving
// owner round-robin, and broadcasts the assignment. Returns the dead
// ranks assigned to the calling rank for rebuilding.
func recoverAssignments(c *par.Comm, firstOwner int, poll time.Duration) []int {
	_, alive := c.FTGather(0, nil, poll)
	var enc []byte
	if c.Rank() == 0 {
		var deadOwners, liveOwners []int
		for r := firstOwner; r < c.Size(); r++ {
			if alive[r] {
				liveOwners = append(liveOwners, r)
			} else {
				deadOwners = append(deadOwners, r)
			}
		}
		w := wire.NewBuffer(4 * len(deadOwners))
		if len(liveOwners) > 0 {
			for k, d := range deadOwners {
				w.PutInt(d)
				w.PutInt(liveOwners[k%len(liveOwners)])
			}
		}
		enc = w.Bytes()
	}
	enc = c.FTBcast(0, enc, poll)
	r := wire.NewReader(enc)
	var mine []int
	for r.Remaining() > 0 {
		dead, assigned := r.Int(), r.Int()
		if assigned == c.Rank() {
			mine = append(mine, dead)
		}
	}
	return mine
}

// rebuildInto re-enumerates every fragment's suffixes, keeps the
// buckets the partition assigned to rank dead, and builds them into
// ib. Returns the bucket and suffix counts added plus the modeled
// compute cost of the rebuild.
func rebuildInto(ib *suffixtree.IncrementalBuilder, st seq.Seqs, splitters []seq.Kmer, cfg Config, dead int) (nbuckets, nsuf int, cost float64) {
	return buildFiltered(ib, st, cfg, func(key seq.Kmer) bool {
		return destOf(splitters, key, cfg.FirstOwner) == dead
	})
}
