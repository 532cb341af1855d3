// Package metric is the schema every metrics struct in the tree is
// declared by. A metric is one exported field of a snapshot struct
// (pebblesdb.Metrics and the structs nested in it, server.Stats) and the
// tags on that field; nothing else spells it. The tags:
//
//	metric:"pebblesdb_flushes_total"  Prometheus family. A name ending in
//	                                  _total is a counter, any other a gauge;
//	                                  "-" keeps the field off the scrape and
//	                                  help then says why.
//	help:"Memtable flushes."          HELP text.
//	label:"level"                     a slice or array is one family with a
//	                                  sample per element, labelled by index,
//	                                  or by name with label:"category=table,log".
//	merge:"max"                       how two stores' values combine: sum by
//	                                  default (bools OR), "max", or "concat"
//	                                  for a slice that is a list, not a vector.
//
// An array without a label is a latency histogram over Buckets, and the
// sibling field whose family is the histogram's plus _sum holds its summed
// nanoseconds.
//
// Merge, Load and WritePrometheus walk the tags by reflection and run on
// cold paths only (a snapshot, a cross-shard merge, a scrape). Increments
// never come here: a counter is a plain 64-bit field bumped with one atomic
// add on its own address.
package metric

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync/atomic"
	"time"
)

// Buckets are the upper bounds of every latency histogram; a histogram
// field has one slot per bound plus a final overflow slot.
var Buckets = [...]time.Duration{
	time.Microsecond,
	10 * time.Microsecond,
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
}

// Histogram is the type of a latency-histogram field: slot i counts
// observations within Buckets[i], the last slot the overflow.
type Histogram = [len(Buckets) + 1]int64

// Walk calls fn for every exported leaf field of the structs vs (all of
// one type), in declaration order, descending into nested and embedded
// structs; fn receives the field and its value in each of vs.
func Walk(fn func(f reflect.StructField, vs []reflect.Value), vs ...reflect.Value) {
	t := vs[0].Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		fields := make([]reflect.Value, len(vs))
		for k, v := range vs {
			fields[k] = v.Field(i)
		}
		if f.Type.Kind() == reflect.Struct {
			Walk(fn, fields...)
		} else {
			fn(f, fields)
		}
	}
}

// Merge accumulates the struct src points to into the one dst points to,
// field by field under each field's merge rule: the metrics of the union
// of two stores.
func Merge(dst, src any) {
	Walk(func(f reflect.StructField, vs []reflect.Value) {
		d, s := vs[0], vs[1]
		rule := f.Tag.Get("merge")
		switch d.Kind() {
		case reflect.Slice:
			if rule == "concat" {
				d.Set(reflect.AppendSlice(d, s))
				return
			}
			if n := s.Len() - d.Len(); n > 0 {
				d.Set(reflect.AppendSlice(d, reflect.MakeSlice(d.Type(), n, n)))
			}
			fallthrough
		case reflect.Array:
			for i := 0; i < s.Len(); i++ {
				mergeScalar(d.Index(i), s.Index(i), rule)
			}
		default:
			mergeScalar(d, s, rule)
		}
	}, reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem())
}

func mergeScalar(d, s reflect.Value, rule string) {
	max := rule == "max"
	switch d.Kind() {
	case reflect.Bool:
		d.SetBool(d.Bool() || s.Bool())
	case reflect.Int, reflect.Int64:
		if !max {
			d.SetInt(d.Int() + s.Int())
		} else if s.Int() > d.Int() {
			d.SetInt(s.Int())
		}
	case reflect.Uint64:
		if !max {
			d.SetUint(d.Uint() + s.Uint())
		} else if s.Uint() > d.Uint() {
			d.SetUint(s.Uint())
		}
	case reflect.Float64:
		d.SetFloat(d.Float() + s.Float())
	default:
		panic("metric: cannot merge " + d.Type().String())
	}
}

// Load snapshots live into dst, two pointers to one struct type whose
// leaves are all int64 or arrays of int64: each word is loaded atomically,
// exactly once, so a snapshot taken beside concurrent atomic adds holds no
// torn and no twice-read counter.
func Load(dst, live any) {
	load := func(d, s reflect.Value) {
		d.SetInt(atomic.LoadInt64(s.Addr().Interface().(*int64)))
	}
	Walk(func(f reflect.StructField, vs []reflect.Value) {
		if vs[0].Kind() != reflect.Array {
			load(vs[0], vs[1])
			return
		}
		for i := 0; i < vs[0].Len(); i++ {
			load(vs[0].Index(i), vs[1].Index(i))
		}
	}, reflect.ValueOf(dst).Elem(), reflect.ValueOf(live).Elem())
}

// WritePrometheus renders every declared field of the struct v points to
// in the Prometheus text exposition format (version 0.0.4): one HELP/TYPE
// header per family, then its samples.
func WritePrometheus(w io.Writer, v any) {
	root := reflect.ValueOf(v).Elem()
	sums := map[string]int64{}
	Walk(func(f reflect.StructField, vs []reflect.Value) {
		if name := f.Tag.Get("metric"); strings.HasSuffix(name, "_sum") {
			sums[name] = vs[0].Int()
		}
	}, root)
	Walk(func(f reflect.StructField, vs []reflect.Value) {
		name, val := f.Tag.Get("metric"), vs[0]
		if name == "" || name == "-" || strings.HasSuffix(name, "_sum") {
			return
		}
		labelSpec, labelled := f.Tag.Lookup("label")
		kind := "gauge"
		switch {
		case strings.HasSuffix(name, "_total"):
			kind = "counter"
		case val.Kind() == reflect.Array && !labelled:
			kind = "histogram"
		}
		if (val.Kind() == reflect.Slice || val.Kind() == reflect.Array) && val.Len() == 0 {
			return
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, f.Tag.Get("help"), name, kind)
		switch {
		case kind == "histogram":
			var cum int64
			for i := 0; i < val.Len(); i++ {
				cum += val.Index(i).Int()
				le := "+Inf"
				if i < len(Buckets) {
					le = fmt.Sprintf("%g", Buckets[i].Seconds())
				}
				fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, le, cum)
			}
			fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, float64(sums[name+"_sum"])/1e9, name, cum)
		case labelled:
			label, names, _ := strings.Cut(labelSpec, "=")
			values := strings.Split(names, ",")
			for i := 0; i < val.Len(); i++ {
				lv := fmt.Sprint(i)
				if names != "" {
					lv = values[i]
				}
				fmt.Fprintf(w, "%s{%s=\"%s\"} %s\n", name, label, lv, sample(val.Index(i)))
			}
		default:
			fmt.Fprintf(w, "%s %s\n", name, sample(val))
		}
	}, root)
}

// sample formats one value the way the exposition format wants it: bools
// as 0/1, floats in %g, integers in decimal.
func sample(v reflect.Value) string {
	switch {
	case v.Kind() == reflect.Bool && v.Bool():
		return "1"
	case v.Kind() == reflect.Bool:
		return "0"
	case v.CanFloat():
		return fmt.Sprintf("%g", v.Float())
	case v.CanUint():
		return fmt.Sprint(v.Uint())
	}
	return fmt.Sprint(v.Int())
}
