package cluster

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/seq"
)

// PartitionLabels canonicalizes a clustering result: each fragment is
// labeled with the smallest fragment index in its cluster, so two
// results describe the same partition exactly when their label slices
// are equal. This is the serial-equivalence oracle form used by the
// fault experiments and the simulation harness.
func PartitionLabels(res *Result) []int {
	labels := make([]int, res.N)
	smallest := make(map[int]int)
	for i := 0; i < res.N; i++ {
		r := res.UF.Find(i)
		if _, ok := smallest[r]; !ok {
			smallest[r] = i
		}
		labels[i] = smallest[r]
	}
	return labels
}

// SamePartition reports whether two canonical label slices describe
// the same partition of the same fragment set.
func SamePartition(got, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// WriteLabelsTSV writes the cluster assignment: one
// "name<TAB>label" line per fragment, labels as PartitionLabels.
func WriteLabelsTSV(w io.Writer, store seq.Seqs, res *Result) error {
	bw := bufio.NewWriter(w)
	for i, l := range PartitionLabels(res) {
		fmt.Fprintf(bw, "%s\t%d\n", store.FragName(i), l)
	}
	return bw.Flush()
}
