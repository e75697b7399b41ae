package qcache

import "reflect"

// Approx estimates the resident memory of a query result in bytes: the
// deep size of everything reachable from v, counting each pointed-to
// object once. It is the cost function of the cache's memory budget — an
// estimate good to tens of percent is plenty for capping a cache, so the
// walk favors cheap structural rules over allocator-exact accounting:
//
//   - fixed-size kinds cost their reflect size;
//   - strings cost header + len;
//   - slices cost header + cap*elem for flat element types, walking the
//     elements only when they can reach further memory;
//   - maps cost a per-bucket overhead plus their keys and values;
//   - pointers and interfaces add the pointee, deduplicated by address.
//
// A value that is itself a byte slice — an encoded response body — costs
// its capacity alone: its header is part of the entry overhead.
func Approx(v any) int64 {
	if v == nil {
		return 0
	}
	rv := reflect.ValueOf(v)
	if rv.Kind() == reflect.Slice && rv.Type().Elem().Kind() == reflect.Uint8 {
		return int64(rv.Cap())
	}
	return approx(rv, make(map[uintptr]struct{}))
}

// mapBucketOverhead approximates per-entry hash-table bookkeeping.
const mapBucketOverhead = 48

func approx(rv reflect.Value, seen map[uintptr]struct{}) int64 {
	switch rv.Kind() {
	case reflect.Invalid:
		return 0
	case reflect.String:
		return int64(rv.Type().Size()) + int64(rv.Len())
	case reflect.Slice:
		size := int64(rv.Type().Size())
		elem := rv.Type().Elem()
		size += int64(rv.Cap()) * int64(elem.Size())
		if hasIndirect(elem) {
			for i := 0; i < rv.Len(); i++ {
				size += indirectOf(rv.Index(i), seen)
			}
		}
		return size
	case reflect.Array:
		size := int64(rv.Type().Size())
		if hasIndirect(rv.Type().Elem()) {
			for i := 0; i < rv.Len(); i++ {
				size += indirectOf(rv.Index(i), seen)
			}
		}
		return size
	case reflect.Map:
		size := int64(rv.Type().Size())
		iter := rv.MapRange()
		for iter.Next() {
			size += mapBucketOverhead
			size += approx(iter.Key(), seen)
			size += approx(iter.Value(), seen)
		}
		return size
	case reflect.Pointer:
		size := int64(rv.Type().Size())
		if rv.IsNil() {
			return size
		}
		ptr := rv.Pointer()
		if _, ok := seen[ptr]; ok {
			return size
		}
		seen[ptr] = struct{}{}
		return size + approx(rv.Elem(), seen)
	case reflect.Interface:
		if rv.IsNil() {
			return int64(rv.Type().Size())
		}
		return int64(rv.Type().Size()) + approx(rv.Elem(), seen)
	case reflect.Struct:
		size := int64(rv.Type().Size())
		for i := 0; i < rv.NumField(); i++ {
			if hasIndirect(rv.Type().Field(i).Type) {
				size += indirectOf(rv.Field(i), seen)
			}
		}
		return size
	default:
		// Fixed-size scalar kinds (ints, floats, bool, complex, chan, func:
		// the latter two never appear in results, their header size is fine).
		return int64(rv.Type().Size())
	}
}

// indirectOf returns only the memory a value reaches beyond its own
// inline representation (which the caller already counted).
func indirectOf(rv reflect.Value, seen map[uintptr]struct{}) int64 {
	total := approx(rv, seen)
	total -= int64(rv.Type().Size())
	if total < 0 {
		total = 0
	}
	return total
}

// hasIndirect reports whether values of t can reach memory outside their
// inline representation, i.e. whether a deep walk could add anything.
func hasIndirect(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer, reflect.Interface:
		return true
	case reflect.Array:
		return hasIndirect(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasIndirect(t.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return false
	}
}
