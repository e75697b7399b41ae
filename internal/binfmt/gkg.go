package binfmt

import "gdeltmine/internal/store"

// GKG section layout: two string dictionaries (themes, persons) followed by
// the columnar table with varint/delta encodings.

func encodeGKG(g *store.GKGStore) []byte {
	var out []byte
	out = append(out, encodeStrings(g.Themes.Names())...)
	out = append(out, encodeStrings(g.Persons.Names())...)

	t := &g.Table
	n := t.Len()
	out = putUvarint(out, uint64(n))
	var prev int32
	for _, v := range t.Interval { // sorted: delta-encode
		out = putUvarint(out, uint64(v-prev))
		prev = v
	}
	for _, v := range t.Translated {
		if v {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	out = encodeCSR(out, t.ThemePtr, t.ThemeIDs)
	out = encodeCSR(out, t.PersonPtr, t.PersonIDs)
	return out
}

func encodeCSR(out []byte, ptr []int64, ids []int32) []byte {
	// Per-row counts then the flat id list.
	for r := 0; r+1 < len(ptr); r++ {
		out = putUvarint(out, uint64(ptr[r+1]-ptr[r]))
	}
	out = putUvarint(out, uint64(len(ids)))
	for _, id := range ids {
		out = putUvarint(out, uint64(id))
	}
	return out
}

func decodeGKGInto(db *store.DB, payload []byte) error {
	d := &decoder{buf: payload}
	themesNames, err := decodeStringsFrom(d)
	if err != nil {
		return err
	}
	personNames, err := decodeStringsFrom(d)
	if err != nil {
		return err
	}
	themes, err := store.FromNames(themesNames)
	if err != nil {
		return err
	}
	persons, err := store.FromNames(personNames)
	if err != nil {
		return err
	}

	n, ok := d.count(maxRows)
	if !ok {
		return d.err
	}
	var t store.GKGTable
	t.Interval = make([]int32, n)
	var prev int32
	for i := range t.Interval {
		prev += int32(d.uvarint())
		t.Interval[i] = prev
	}
	t.Translated = make([]bool, n)
	tr := d.bytes(n)
	if d.err != nil {
		return d.err
	}
	for i := range t.Translated {
		t.Translated[i] = tr[i] != 0
	}
	if t.ThemePtr, t.ThemeIDs, err = decodeCSRFrom(d, n); err != nil {
		return err
	}
	if t.PersonPtr, t.PersonIDs, err = decodeCSRFrom(d, n); err != nil {
		return err
	}
	if d.err != nil {
		return d.err
	}
	return store.AssembleGKG(db, t, themes, persons)
}

func decodeStringsFrom(d *decoder) ([]string, error) {
	n, ok := d.count(maxRows)
	if !ok {
		return nil, d.err
	}
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		l := int(d.uvarint())
		names = append(names, string(d.bytes(l)))
	}
	return names, d.err
}

func decodeCSRFrom(d *decoder, rows int) ([]int64, []int32, error) {
	ptr := make([]int64, rows+1)
	for r := 0; r < rows; r++ {
		ptr[r+1] = ptr[r] + int64(d.uvarint())
	}
	total, ok := d.count(maxRows)
	if !ok {
		return nil, nil, d.err
	}
	if int64(total) != ptr[rows] {
		return nil, nil, errMismatch(total, ptr[rows])
	}
	ids := make([]int32, total)
	for i := range ids {
		ids[i] = int32(d.uvarint())
	}
	return ptr, ids, d.err
}

type errMismatchT struct{ got, want int64 }

func errMismatch(got int, want int64) error { return &errMismatchT{int64(got), want} }

func (e *errMismatchT) Error() string {
	return "binfmt: gkg csr id count mismatch"
}
