package matrix

import "fmt"

// JaccardFromPairCounts computes the co-reporting matrix of Section VI-B:
// given pair[i][j] = e_ij (events reported by both i and j) and
// totals[i] = e_i (events reported by i), it returns
//
//	c_ij = e_ij / (e_i + e_j - e_ij)
//
// the Jaccard index of the two event sets. The diagonal is left zero (the
// self-Jaccard is trivially 1 and the paper's Table IV uses the diagonal for
// self-follow-reporting instead). Pairs with an empty union yield zero.
func JaccardFromPairCounts(pair *Int64, totals []int64) (*Dense, error) {
	if pair.Rows != pair.Cols {
		return nil, fmt.Errorf("matrix: jaccard needs a square pair matrix, have %dx%d", pair.Rows, pair.Cols)
	}
	if len(totals) != pair.Rows {
		return nil, fmt.Errorf("matrix: jaccard totals length %d != %d", len(totals), pair.Rows)
	}
	n := pair.Rows
	out := NewDense(n, n)
	for i := 0; i < n; i++ {
		prow := pair.Row(i)
		orow := out.Row(i)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			eij := prow[j]
			union := totals[i] + totals[j] - eij
			if union > 0 && eij > 0 {
				orow[j] = float64(eij) / float64(union)
			}
		}
	}
	return out, nil
}
