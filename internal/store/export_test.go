package store

import (
	"reflect"
	"strings"
)

// PostingsBytes reports the resident bytes, spare capacity included, of
// every postings column of db — the DB fields named by* — for the external
// layout guard.
func PostingsBytes(db *DB) map[string]int {
	v := reflect.ValueOf(db).Elem()
	out := map[string]int{}
	for i := range v.NumField() {
		if name := v.Type().Field(i).Name; strings.HasPrefix(name, "by") {
			f := v.Field(i)
			out[name] = f.Cap() * int(f.Type().Elem().Size())
		}
	}
	return out
}
