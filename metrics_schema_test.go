package pebblesdb_test

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"strings"
	"testing"

	"pebblesdb"
	"pebblesdb/internal/metric"
	"pebblesdb/internal/server"
)

// fillValue is the value leaf name (element i) takes under salt: a function
// of the field's name, not of its position, so adding a field leaves every
// other field's value — and testdata/metrics_parent.prom — alone.
func fillValue(name string, i int, salt uint32) int64 {
	h := fnv.New32a()
	fmt.Fprintf(h, "%s#%d#%d", name, i, salt)
	return 1 + int64(h.Sum32()%1_000_000)
}

// fillLeaves gives every leaf of the struct v points to a distinct nonzero
// value; slices get 3+salt elements, bools become true.
func fillLeaves(v any, salt uint32) {
	metric.Walk(func(f reflect.StructField, vs []reflect.Value) {
		fv := vs[0]
		if fv.Kind() == reflect.Slice {
			fv.Set(reflect.MakeSlice(fv.Type(), 3+int(salt), 3+int(salt)))
		}
		eachElem(fv, func(i int, e reflect.Value) {
			n := fillValue(f.Name, i, salt)
			switch {
			case e.Kind() == reflect.Bool:
				e.SetBool(true)
			case e.CanInt():
				e.SetInt(n)
			case e.CanUint():
				e.SetUint(uint64(n))
			default:
				e.SetFloat(float64(n))
			}
		})
	}, reflect.ValueOf(v).Elem())
}

// eachElem calls fn on every element of a slice or array leaf, or on a
// scalar leaf itself.
func eachElem(v reflect.Value, fn func(i int, e reflect.Value)) {
	if v.Kind() != reflect.Slice && v.Kind() != reflect.Array {
		fn(0, v)
		return
	}
	for i := 0; i < v.Len(); i++ {
		fn(i, v.Index(i))
	}
}

// num reads any numeric or bool leaf as a float64.
func num(v reflect.Value) float64 {
	switch {
	case v.Kind() == reflect.Bool && v.Bool():
		return 1
	case v.Kind() == reflect.Bool:
		return 0
	case v.CanInt():
		return float64(v.Int())
	case v.CanUint():
		return float64(v.Uint())
	}
	return v.Float()
}

// promLines splits an exposition into its TYPE lines and its samples.
func promLines(text []byte) (types, samples map[string]bool) {
	types, samples = map[string]bool{}, map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			types[line] = true
		case line != "" && !strings.HasPrefix(line, "#"):
			samples[line] = true
		}
	}
	return types, samples
}

// TestMetricsSchemaComplete: every leaf field of pebblesdb.Metrics and
// server.Stats either carries a family the Prometheus walker renders, with
// help text, or is marked metric:"-" with the reason in help. A field added
// without a declaration fails here.
func TestMetricsSchemaComplete(t *testing.T) {
	for _, v := range []any{&pebblesdb.Metrics{}, &server.Stats{}} {
		fillLeaves(v, 0)
		var out bytes.Buffer
		metric.WritePrometheus(&out, v)
		types, _ := promLines(out.Bytes())
		rendered := func(family string) bool {
			for _, kind := range []string{"counter", "gauge", "histogram"} {
				if types["# TYPE "+family+" "+kind] {
					return true
				}
			}
			return false
		}
		var hidden []string
		metric.Walk(func(f reflect.StructField, _ []reflect.Value) {
			family, help := f.Tag.Get("metric"), f.Tag.Get("help")
			switch {
			case family == "":
				t.Errorf("%T: field %s has no metric declaration", v, f.Name)
			case family == "-" && help == "":
				t.Errorf("%T: field %s is kept off the scrape without a reason", v, f.Name)
			case family == "-":
				hidden = append(hidden, f.Name)
			case strings.HasSuffix(family, "_sum"):
				if !rendered(strings.TrimSuffix(family, "_sum")) {
					t.Errorf("%T: field %s is the sum of a histogram that is not rendered", v, f.Name)
				}
			case help == "":
				t.Errorf("%T: field %s (%s) has no help text", v, f.Name, family)
			case !rendered(family):
				t.Errorf("%T: field %s declares %s but the walker does not render it", v, f.Name, family)
			}
		}, reflect.ValueOf(v).Elem())
		t.Logf("%T: %d families, not exported: %v", v, len(types), hidden)
	}
}

// TestMetricsMergeRules fills two Metrics with distinct per-field values,
// merges them, and checks every leaf against the rule the hand-written
// Merge chain applied before the schema existed: everything sums (vectors
// element-wise, growing to the longer operand; the histogram bucket-wise)
// except the five fields named below.
func TestMetricsMergeRules(t *testing.T) {
	rules := map[string]string{
		"PeakUnitsInflight": "max",
		"PeakLevelUnits":    "max",
		"LastSeq":           "max",
		"ReadOnly":          "or",
		"TableFileSizes":    "concat",
	}
	// got starts as a's twin, not its copy: a copy would share a's slices.
	var a, b, got pebblesdb.Metrics
	fillLeaves(&a, 0)
	fillLeaves(&got, 0)
	fillLeaves(&b, 2)
	a.ReadOnly, got.ReadOnly = false, false
	got.Merge(b)

	elem := func(v reflect.Value, i int) float64 {
		if v.Kind() != reflect.Slice && v.Kind() != reflect.Array {
			return num(v)
		}
		if i >= v.Len() {
			return 0
		}
		return num(v.Index(i))
	}
	seen := map[string]bool{}
	metric.Walk(func(f reflect.StructField, vs []reflect.Value) {
		av, bv, gv := vs[0], vs[1], vs[2]
		rule := rules[f.Name]
		seen[f.Name] = true
		if rule == "" {
			rule = "sum"
		}
		if rule == "concat" {
			if gv.Len() != av.Len()+bv.Len() {
				t.Errorf("%s: merged length %d, want %d+%d", f.Name, gv.Len(), av.Len(), bv.Len())
			}
			eachElem(gv, func(i int, e reflect.Value) {
				want := elem(av, i)
				if i >= av.Len() {
					want = elem(bv, i-av.Len())
				}
				if num(e) != want {
					t.Errorf("%s[%d] = %v, want %v", f.Name, i, num(e), want)
				}
			})
			return
		}
		if gv.Kind() == reflect.Slice && gv.Len() != bv.Len() {
			t.Errorf("%s: merged length %d, want the longer operand's %d", f.Name, gv.Len(), bv.Len())
		}
		eachElem(gv, func(i int, e reflect.Value) {
			x, y := elem(av, i), elem(bv, i)
			want := x + y
			switch rule {
			case "max":
				want = max(x, y)
			case "or":
				want = max(x, y)
				if x != 0 || y != 1 {
					t.Fatalf("%s: operands %v, %v do not tell OR from sum or AND", f.Name, x, y)
				}
			}
			if num(e) != want {
				t.Errorf("%s[%d] = %v, want the %s of %v and %v", f.Name, i, num(e), rule, x, y)
			}
		})
	}, reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem(), reflect.ValueOf(&got).Elem())
	for name := range rules {
		if !seen[name] {
			t.Errorf("rule names %s, which is not a field of Metrics", name)
		}
	}
}

// TestPrometheusServesParentSamples: for the fixed Metrics that fillLeaves
// builds, every TYPE line and every sample the hand-written exposition
// served before the schema (recorded at that commit in
// testdata/metrics_parent.prom) is still served, value for value.
func TestPrometheusServesParentSamples(t *testing.T) {
	golden, err := os.ReadFile("testdata/metrics_parent.prom")
	if err != nil {
		t.Fatal(err)
	}
	var m pebblesdb.Metrics
	fillLeaves(&m, 0)
	var out bytes.Buffer
	m.WritePrometheus(&out)
	wantTypes, wantSamples := promLines(golden)
	gotTypes, gotSamples := promLines(out.Bytes())
	for line := range wantTypes {
		if !gotTypes[line] {
			t.Errorf("no longer served: %s", line)
		}
	}
	for line := range wantSamples {
		if !gotSamples[line] {
			t.Errorf("no longer served: %s", line)
		}
	}
	if len(wantSamples) < 60 {
		t.Fatalf("golden file holds %d samples, expected the parent's full exposition", len(wantSamples))
	}
	t.Logf("parent: %d families, %d samples; now: %d families, %d samples",
		len(wantTypes), len(wantSamples), len(gotTypes), len(gotSamples))
}
