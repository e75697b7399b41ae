package binfmt

import (
	"fmt"

	"gdeltmine/internal/store"
)

// GKG section layout: the theme dictionary; the row count, the rows'
// capture intervals (sorted, so delta-encoded) and translated flags; then
// the theme postings: the number of lists, each list's length, their
// total, and each list's rows delta-encoded from 0.

func encodeGKG(g *store.GKGStore) []byte {
	out := encodeStrings(g.Themes.Names())

	t := &g.Table
	out = putUvarint(out, uint64(t.Len()))
	out = putUvarints(out, t.Interval, true)
	for _, v := range t.Translated {
		if v {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}

	nt := int32(g.Themes.Len())
	out = putUvarint(out, uint64(nt))
	total := 0
	for th := range nt {
		out = putUvarint(out, uint64(len(g.ThemeRows(th))))
		total += len(g.ThemeRows(th))
	}
	out = putUvarint(out, uint64(total))
	for th := range nt {
		out = putUvarints(out, g.ThemeRows(th), true)
	}
	return out
}

func decodeGKGInto(db *store.DB, payload []byte) error {
	d := &Decoder{buf: payload}
	names, err := decodeStrings(d)
	if err != nil {
		return err
	}
	themes, err := store.FromNames(names)
	if err != nil {
		return err
	}

	n, ok := d.Count(maxRows)
	if !ok {
		return d.err
	}
	var t store.GKGTable
	t.Interval = uvarints(d, make([]int32, n), true)
	t.Translated = make([]bool, n)
	tr := d.bytes(n)
	if d.err != nil {
		return d.err
	}
	for i := range t.Translated {
		t.Translated[i] = tr[i] != 0
	}

	lists, ok := d.Count(maxRows)
	if !ok {
		return d.err
	}
	ptr := make([]int64, lists+1)
	for th := range lists {
		c := d.Uvarint()
		if c > maxRows-uint64(ptr[th]) {
			return fmt.Errorf("binfmt: gkg theme postings exceed %d row ids", uint64(maxRows))
		}
		ptr[th+1] = ptr[th] + int64(c)
	}
	total, ok := d.Count(maxRows)
	if !ok {
		return d.err
	}
	if int64(total) != ptr[lists] {
		return fmt.Errorf("binfmt: gkg theme postings pointers cover %d row ids, the section holds %d", ptr[lists], total)
	}
	idx := make([]int32, total)
	for th := range lists {
		uvarints(d, idx[ptr[th]:ptr[th+1]], true)
	}
	if d.err != nil {
		return d.err
	}
	return store.AssembleGKG(db, t, themes, ptr, idx)
}
