package base

import "testing"

func TestFilenameRoundtrip(t *testing.T) {
	cases := []struct {
		ft FileType
		fn FileNum
	}{
		{FileTypeLog, 1},
		{FileTypeLog, 999999},
		{FileTypeTable, 42},
		{FileTypeManifest, 7},
		{FileTypeCurrent, 0},
		{FileTypeTemp, 13},
	}
	for _, c := range cases {
		name := MakeFilename(c.ft, c.fn)
		ft, fn, ok := ParseFilename(name)
		if !ok {
			t.Fatalf("parse %q failed", name)
		}
		if ft != c.ft {
			t.Fatalf("parse %q: type %v want %v", name, ft, c.ft)
		}
		if c.ft != FileTypeCurrent && fn != c.fn {
			t.Fatalf("parse %q: num %v want %v", name, fn, c.fn)
		}
	}
}

func TestParseFilenameRejectsJunk(t *testing.T) {
	for _, name := range []string{"", "foo", "123.bar", "x.log", "MANIFEST-", "MANIFEST-x", ".sst", "12a.sst", "LOCK"} {
		if _, _, ok := ParseFilename(name); ok {
			t.Fatalf("parse %q should fail", name)
		}
	}
}

func TestConfigDefaultsAndValidate(t *testing.T) {
	var c Config
	c.EnsureDefaults()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if c.MemtableSize != 4<<20 || c.NumLevels != 7 || c.L0SlowdownTrigger != 8 {
		t.Fatalf("unexpected defaults: %+v", c)
	}

	bad := c
	bad.L0StopTrigger = c.L0SlowdownTrigger - 1
	if err := bad.Validate(); err == nil {
		t.Fatal("stop < slowdown should be invalid")
	}
	bad2 := c
	bad2.NumLevels = 2
	if err := bad2.Validate(); err == nil {
		t.Fatal("2 levels should be invalid")
	}
	bad3 := c
	bad3.MemtableSize = MaxMemtableSize + 1
	if err := bad3.Validate(); err == nil {
		t.Fatal("a memtable beyond what its arena addresses should be invalid")
	}
}

func TestMaxBytesForLevel(t *testing.T) {
	var c Config
	c.EnsureDefaults()
	if c.MaxBytesForLevel(1) != c.LevelBaseBytes {
		t.Fatal("level 1 should be base size")
	}
	if c.MaxBytesForLevel(3) != c.LevelBaseBytes*LevelMultiplier*LevelMultiplier {
		t.Fatal("level sizing should multiply per level")
	}
}
