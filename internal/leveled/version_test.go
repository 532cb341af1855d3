package leveled

import (
	"testing"

	"pebblesdb/internal/base"
	"pebblesdb/internal/manifest"
)

func meta(fn base.FileNum, lo, hi string) base.FileMetadata {
	return base.FileMetadata{
		FileNum:  fn,
		Size:     100,
		Smallest: base.MakeInternalKey(nil, []byte(lo), 1, base.KindSet),
		Largest:  base.MakeInternalKey(nil, []byte(hi), 1, base.KindSet),
	}
}

func TestVersionApplyAddDelete(t *testing.T) {
	v := newVersion(3)
	edit := &manifest.VersionEdit{
		NewFiles: []manifest.NewFileEntry{
			{Level: 0, Meta: meta(2, "a", "m")},
			{Level: 0, Meta: meta(3, "c", "z")},
			{Level: 1, Meta: meta(4, "k", "p")},
			{Level: 1, Meta: meta(5, "a", "j")},
		},
	}
	nv, err := v.apply(edit, 3)
	if err != nil {
		t.Fatal(err)
	}
	// L0 sorted newest (highest filenum) first.
	if nv.files[0][0].FileNum != 3 || nv.files[0][1].FileNum != 2 {
		t.Fatalf("L0 order: %v", nv.files[0])
	}
	// L1 sorted by smallest key.
	if nv.files[1][0].FileNum != 5 || nv.files[1][1].FileNum != 4 {
		t.Fatalf("L1 order: %v", nv.files[1])
	}

	del := &manifest.VersionEdit{
		DeletedFiles: []manifest.DeletedFileEntry{{Level: 0, FileNum: 2}},
	}
	nv2, err := nv.apply(del, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nv2.files[0]) != 1 || nv2.files[0][0].FileNum != 3 {
		t.Fatalf("delete failed: %v", nv2.files[0])
	}
	// The original version is untouched (immutability).
	if len(nv.files[0]) != 2 {
		t.Fatal("apply mutated its receiver")
	}
}

func TestVersionApplyRejectsBadLevel(t *testing.T) {
	v := newVersion(3)
	edit := &manifest.VersionEdit{
		NewFiles: []manifest.NewFileEntry{{Level: 7, Meta: meta(2, "a", "b")}},
	}
	if _, err := v.apply(edit, 3); err == nil {
		t.Fatal("out-of-range level must be rejected")
	}
}

func TestFind(t *testing.T) {
	m1 := meta(1, "b", "d")
	m2 := meta(2, "f", "h")
	v := &version{files: [][]*base.FileMetadata{nil, {&m1, &m2}}}
	cases := []struct {
		key  string
		land int // where a seek to key lands
		hold int // the file that can hold key, or -1
	}{
		{"a", 0, -1}, {"b", 0, 0}, {"c", 0, 0}, {"d", 0, 0}, {"e", 1, -1}, {"f", 1, 1}, {"h", 1, 1}, {"z", 2, -1},
	}
	for _, c := range cases {
		land, files := v.Find(1, []byte(c.key))
		hold := -1
		if len(files) == 1 {
			hold = int(files[0].FileNum) - 1
		}
		if land != c.land || hold != c.hold || len(files) > 1 {
			t.Fatalf("Find(%q) lands on %d and returns %v, want %d and file index %d", c.key, land, files, c.land, c.hold)
		}
	}
}

func TestOverlaps(t *testing.T) {
	m1 := meta(1, "b", "d")
	m2 := meta(2, "f", "h")
	m3 := meta(3, "j", "l")
	files := []*base.FileMetadata{&m1, &m2, &m3}

	got := overlaps(files, []byte("c"), []byte("g"))
	if len(got) != 2 || got[0].FileNum != 1 || got[1].FileNum != 2 {
		t.Fatalf("overlaps c..g: %v", got)
	}
	if got := overlaps(files, []byte("m"), []byte("z")); len(got) != 0 {
		t.Fatalf("overlaps m..z: %v", got)
	}
	if got := overlaps(files, []byte("a"), []byte("z")); len(got) != 3 {
		t.Fatalf("overlaps a..z: %v", got)
	}
}

func TestAllowedSeeksFloor(t *testing.T) {
	if allowedSeeks(0) != 100 {
		t.Fatal("floor must be 100")
	}
	if allowedSeeks(32<<20) != (32<<20)/(16<<10) {
		t.Fatal("large files get proportional budgets")
	}
}
