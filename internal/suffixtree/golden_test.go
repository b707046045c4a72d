package suffixtree_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/pgst"
	"repro/internal/seq"
	"repro/internal/seq/diskstore"
	"repro/internal/simulate"
	"repro/internal/suffixtree"
)

// Golden values of the bucket forest built from goldenFrags with
// w=10 and minimum suffix length 20 (the clustering defaults). They
// pin the tree and the modeled work count byte for byte, so a change
// to the builder's host kernel that alters either shows up here.
const (
	goldenDigest = "a343cdd2d5d264e4954505996803960b9dc852f31b16e73c53f8693f778647bb"
	goldenWork   = 83834961
	goldenW      = 10
	goldenMinLen = 20
)

// goldenFrags is a fixed uniform shotgun (simulate.DrosophilaLike,
// 32 kbp genome) with short deterministic 'N' runs, so partitioning
// meets masked bytes at every depth. Its packed store spans more than
// one 64 KiB cache block.
func goldenFrags() []*seq.Fragment {
	rng := rand.New(rand.NewSource(2006))
	_, reads := simulate.DrosophilaLike(rng, 32_000)
	mrng := rand.New(rand.NewSource(7))
	for _, r := range reads {
		for i := 0; i < len(r.Bases); i++ {
			if mrng.Intn(250) == 0 {
				for end := i + 1 + mrng.Intn(12); i < end && i < len(r.Bases); i++ {
					r.Bases[i] = seq.Masked
				}
			}
		}
	}
	return reads
}

// forestDigest hashes a forest's Nodes, Sufs and Roots in order. It is
// fed one segment at a time: each segment's node and suffix indices
// are rebased by the totals of the segments before it, so the digest
// of a segment sequence equals that of the single forest holding the
// same buckets in the same order.
type forestDigest struct {
	h                 hash.Hash
	nodeOff, sufOff   int32
	nodes, sufs, root []byte
}

func newForestDigest() *forestDigest { return &forestDigest{h: sha256.New()} }

func (d *forestDigest) add(t *suffixtree.Tree) {
	le := binary.LittleEndian
	rebase := func(v, off int32) int32 {
		if v < 0 {
			return v
		}
		return v + off
	}
	for _, n := range t.Nodes {
		for _, v := range []int32{
			rebase(n.Parent, d.nodeOff), n.Depth,
			rebase(n.FirstChild, d.nodeOff), rebase(n.NextSib, d.nodeOff),
			rebase(n.SufStart, d.sufOff), rebase(n.SufEnd, d.sufOff),
		} {
			d.nodes = le.AppendUint32(d.nodes, uint32(v))
		}
	}
	for _, sf := range t.Sufs {
		d.sufs = le.AppendUint32(d.sufs, uint32(sf.Sid))
		d.sufs = le.AppendUint32(d.sufs, uint32(sf.Pos))
		d.sufs = append(d.sufs, byte(sf.Prev))
	}
	for _, r := range t.Roots {
		d.root = le.AppendUint32(d.root, uint32(rebase(r, d.nodeOff)))
	}
	d.nodeOff += int32(len(t.Nodes))
	d.sufOff += int32(len(t.Sufs))
}

func (d *forestDigest) sum() string {
	d.h.Write(d.nodes)
	d.h.Write(d.sufs)
	d.h.Write(d.root)
	return hex.EncodeToString(d.h.Sum(nil))
}

// goldenBuckets groups the suffixes of st the way suffixtree.Build
// does: by w-prefix key, buckets in ascending key order.
func goldenBuckets(st *seq.Store) (suffixtree.Access, [][]suffixtree.Suffix) {
	access := func(sid int32) []byte { return st.Seq(int(sid)) }
	sids := make([]int32, st.NumSeqs())
	for i := range sids {
		sids[i] = int32(i)
	}
	type keyed struct {
		key seq.Kmer
		suf suffixtree.Suffix
	}
	var ks []keyed
	for _, sf := range suffixtree.EnumerateSuffixes(access, sids, goldenMinLen) {
		if key, ok := suffixtree.BucketKey(access(sf.Sid), int(sf.Pos), goldenW); ok {
			ks = append(ks, keyed{key, sf})
		}
	}
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	var buckets [][]suffixtree.Suffix
	for lo := 0; lo < len(ks); {
		hi := lo
		var bucket []suffixtree.Suffix
		for ; hi < len(ks) && ks[hi].key == ks[lo].key; hi++ {
			bucket = append(bucket, ks[hi].suf)
		}
		buckets = append(buckets, bucket)
		lo = hi
	}
	return access, buckets
}

// buildInMemory builds the forest of goldenBuckets through an
// IncrementalBuilder, so its Work count is visible.
func buildInMemory(st *seq.Store) (*suffixtree.Tree, int64) {
	access, buckets := goldenBuckets(st)
	ib := suffixtree.NewIncrementalBuilder(goldenW)
	for _, bucket := range buckets {
		ib.AddBucket(access, bucket)
	}
	return ib.Tree(), ib.Work()
}

// TestGoldenForest pins the in-memory forest digest and Work() to the
// golden values, and requires the out-of-core path — pgst.SweepSerial
// over a disk store whose cache holds a single block — to yield
// segments whose union has the same digest.
func TestGoldenForest(t *testing.T) {
	frags := goldenFrags()
	mem := seq.NewStore(frags)
	if packed := mem.TotalBases() / 4; packed <= 64<<10 {
		t.Fatalf("golden store packs to %d bytes, want more than one cache block", packed)
	}

	tree, work := buildInMemory(mem)
	d := newForestDigest()
	d.add(tree)
	if got := d.sum(); got != goldenDigest || work != goldenWork {
		t.Errorf("in-memory forest: digest %s work %d, want %s work %d",
			got, work, goldenDigest, goldenWork)
	}

	disk, err := diskstore.Create(t.TempDir(), frags, diskstore.Options{CacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	d = newForestDigest()
	segments := 0
	pgst.SweepSerial(disk, pgst.Config{W: goldenW, MinLen: goldenMinLen, SpillBytes: 8 << 20},
		func(tr *suffixtree.Tree) bool {
			segments++
			d.add(tr)
			return true
		})
	if segments < 2 {
		t.Errorf("sweep produced %d segment(s); the union check needs several", segments)
	}
	if got := d.sum(); got != goldenDigest {
		t.Errorf("disk-store sweep union: digest %s, want %s", got, goldenDigest)
	}
}

// BenchmarkAddBucket measures the bucket subtree kernel on the golden
// input: one op is one AddBucket call, cycling through the buckets in
// key order; a fresh builder starts each cycle so the forest stays one
// input's size. chars/s is examined characters (Work) per second.
func BenchmarkAddBucket(b *testing.B) {
	access, buckets := goldenBuckets(seq.NewStore(goldenFrags()))
	var ib *suffixtree.IncrementalBuilder
	var work int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(buckets) == 0 {
			b.StopTimer()
			if ib != nil {
				work += ib.Work()
			}
			ib = suffixtree.NewIncrementalBuilder(goldenW)
			b.StartTimer()
		}
		ib.AddBucket(access, buckets[i%len(buckets)])
	}
	work += ib.Work()
	b.ReportMetric(float64(work)/b.Elapsed().Seconds(), "chars/s")
}
