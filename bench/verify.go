package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/url"

	"gdeltmine/internal/engine"
	"gdeltmine/internal/registry"
	"gdeltmine/internal/store"
)

// Verification runs outside every timed window: each distinct request's
// answer must equal what the monolithic engine's Descriptor.Run returns
// for the same parameters — integers exactly, floats within 1e-9 — the
// same rule the repo's differential batteries use.

const floatTol = 1e-9

// decodeTree parses JSON keeping number text, so integers compare exactly
// however large they are.
func decodeTree(data []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, err
	}
	return tree, nil
}

func valueTree(v any) (any, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return decodeTree(data)
}

func eqTree(path string, a, b any) error {
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok || len(av) != len(bv) {
			return fmt.Errorf("%s: object shape differs", path)
		}
		for k, v := range av {
			if err := eqTree(path+"."+k, v, bv[k]); err != nil {
				return err
			}
		}
		return nil
	case []any:
		bv, ok := b.([]any)
		if !ok || len(av) != len(bv) {
			return fmt.Errorf("%s: array length differs", path)
		}
		for i := range av {
			if err := eqTree(fmt.Sprintf("%s[%d]", path, i), av[i], bv[i]); err != nil {
				return err
			}
		}
		return nil
	case json.Number:
		bv, ok := b.(json.Number)
		if !ok {
			return fmt.Errorf("%s: number vs %T", path, b)
		}
		if av == bv {
			return nil
		}
		_, aErr := av.Int64()
		_, bErr := bv.Int64()
		if aErr == nil && bErr == nil {
			return fmt.Errorf("%s: %s vs %s", path, av, bv)
		}
		af, _ := av.Float64()
		bf, _ := bv.Float64()
		if diff := math.Abs(af - bf); diff > floatTol*math.Max(math.Max(math.Abs(af), math.Abs(bf)), 1) {
			return fmt.Errorf("%s: %s vs %s", path, av, bv)
		}
		return nil
	default:
		if a != b {
			return fmt.Errorf("%s: %v vs %v", path, a, b)
		}
		return nil
	}
}

// defaultParams resolves a kind's schema with no parameters given.
func defaultParams(d *registry.Descriptor) (registry.Params, error) {
	return d.ParseParams(func(string) []string { return nil })
}

// reference computes the oracle answer for one request: the monolith's
// Descriptor.Run, with the request's common parameters (from/to window)
// applied the way the server applies them.
func reference(mono *store.DB, kind string, q url.Values) (any, error) {
	v, err := referenceValue(mono, kind, q)
	if err != nil {
		return nil, err
	}
	return valueTree(v)
}

// referenceValue is reference before JSON normalisation.
func referenceValue(mono *store.DB, kind string, q url.Values) (any, error) {
	d, ok := registry.Lookup(kind)
	if !ok {
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
	p, err := d.ParseURLValues(q)
	if err != nil {
		return nil, err
	}
	e, err := registry.DeriveEngine(engine.New(mono).WithKind(kind), func(name string) []string { return q[name] })
	if err != nil {
		return nil, err
	}
	return d.Run(e, p)
}

// verifyBodies checks each captured response body against the oracle and
// returns one error per wrong answer. each, when non-nil, sees every
// oracle value (the churn workload sizes its catalogue with it).
func verifyBodies(mono *store.DB, cat []entry, bodies map[int][]byte, each func(v any)) []error {
	var errs []error
	for i, body := range bodies {
		got, err := decodeTree(body)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: undecodable answer: %w", cat[i].path, err))
			continue
		}
		val, err := referenceValue(mono, cat[i].kind, cat[i].query)
		var want any
		if err == nil {
			want, err = valueTree(val)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: oracle: %w", cat[i].path, err))
			continue
		}
		if each != nil {
			each(val)
		}
		if err := eqTree(cat[i].kind, want, got); err != nil {
			errs = append(errs, fmt.Errorf("%s: answer differs from the monolith: %w", cat[i].path, err))
		}
	}
	return errs
}
