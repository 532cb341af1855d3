package memtable

import (
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/race"
)

// TestGetSearchAllocs pins the memtable point-read budgets: GetSearch with
// a caller-built search key is allocation-free; the Get convenience wrapper
// pays exactly the search-key construction.
func TestGetSearchAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	m := New()
	for i := byte(0); i < 100; i++ {
		m.Set([]byte{'k', i}, base.SeqNum(i)+1, base.KindSet, []byte{'v', i})
	}
	search := base.MakeSearchKey(nil, []byte{'k', 42}, base.MaxSeqNum)

	allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, found := m.GetSearch(search); !found {
			t.Fatal("key not found")
		}
	})
	if allocs > 0 {
		t.Errorf("GetSearch allocs/op = %v, want 0", allocs)
	}

	allocs = testing.AllocsPerRun(100, func() {
		if _, _, found := m.Get([]byte{'k', 42}, base.MaxSeqNum); !found {
			t.Fatal("key not found")
		}
	})
	if allocs > 1 {
		t.Errorf("Get allocs/op = %v, want <= 1 (the search key)", allocs)
	}
}

// TestSetAllocs pins the write side: a Set composes its entry in the
// skiplist's arena, so what a memtable allocates while it fills is the
// arena's chunks — a dozen for thousands of entries, none a Set.
func TestSetAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	m := New()
	key := []byte("0000000000000000")
	value := make([]byte, 128)
	seq := base.SeqNum(0)
	allocs := testing.AllocsPerRun(20000, func() {
		seq++
		key[seq%16] = 'a' + byte(seq%23)
		m.Set(key, seq, base.KindSet, value)
	})
	if allocs > 0 {
		t.Errorf("Set allocs/op = %v, want 0 (amortised over the arena's chunks)", allocs)
	}
	if m.Len() < 20000 {
		t.Fatalf("Len = %d", m.Len())
	}
}
