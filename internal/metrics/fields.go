package metrics

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
)

// Fields describes a statistics struct T whose counters are plain uint64
// fields: a field tagged `metric:"suffix"` is a cell the registry views
// (Bind) under the descriptor's prefix plus that suffix, in declaration
// order; an untagged field is deliberately unbound — counted, summed by
// Add, absent from every snapshot and window. The field declaration is
// the only place the counter is spelled.
//
// A descriptor is resolved once, at its package's init. The prefix is
// either fixed ("mem/") or a format over an instance number ("cm/s%d/",
// for what exists per RegLess shard or per scheduler group); the names
// of instance i — building a few hundred such strings is most of what
// registering a simulation's cells would otherwise cost, every run — are
// built once per process and shared.
type Fields[T any] struct {
	format string
	// index holds the struct index of each tagged field; suffixes the
	// tagged fields' suffixes followed by the extra ones.
	index    []int
	suffixes []string

	mu   sync.Mutex
	rows [][]string
}

// FieldsOf resolves T's descriptor under a prefix format. The extra
// suffixes name further per-instance cells the owner registers itself
// (gauges, array elements) after the fields; Bind returns their names.
// A tag on anything but an exported uint64 field is a bug and panics.
func FieldsOf[T any](format string, extra ...string) *Fields[T] {
	t := reflect.TypeFor[T]()
	f := &Fields[T]{format: format}
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		tag, ok := sf.Tag.Lookup("metric")
		if !ok {
			continue
		}
		if sf.Type.Kind() != reflect.Uint64 || !sf.IsExported() {
			panic(fmt.Sprintf("metrics: %v.%s carries a metric tag but is not an exported uint64", t, sf.Name))
		}
		f.index = append(f.index, i)
		f.suffixes = append(f.suffixes, tag)
	}
	f.suffixes = append(f.suffixes, extra...)
	return f
}

// names returns instance i's cell names (callers do not modify the row).
func (f *Fields[T]) names(i int) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.rows) <= i {
		prefix := f.format
		if strings.Contains(prefix, "%d") {
			prefix = fmt.Sprintf(prefix, len(f.rows))
		}
		row := make([]string, len(f.suffixes))
		for j, s := range f.suffixes {
			row[j] = prefix + s
		}
		f.rows = append(f.rows, row)
	}
	return f.rows[i]
}

// Bind registers a view over each tagged field of s on r (Registry.Bind:
// the owner keeps writing `s.X++`) and returns the names of the extra
// cells. A nil registry binds nothing.
func (f *Fields[T]) Bind(r *Registry, s *T) []string { return f.BindAt(r, 0, s) }

// BindAt is Bind under instance i's prefix.
func (f *Fields[T]) BindAt(r *Registry, i int, s *T) []string {
	row := f.names(i)
	if r != nil {
		v := reflect.ValueOf(s).Elem()
		for j, fi := range f.index {
			r.Bind(row[j], v.Field(fi).Addr().Interface().(*uint64))
		}
	}
	return row[len(f.index):]
}

// Add adds every exported uint64 field of src into dst, tagged or not:
// the fold of per-SM statistics into a chip's. What is not a sum (a
// clock, a mean, a series) the caller sets afterwards.
func Add[T any](dst, src *T) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for i := 0; i < d.NumField(); i++ {
		if f := d.Field(i); f.Kind() == reflect.Uint64 && f.CanSet() {
			f.SetUint(f.Uint() + s.Field(i).Uint())
		}
	}
}
