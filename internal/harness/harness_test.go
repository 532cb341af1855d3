package harness

import (
	"bytes"
	"strings"
	"testing"

	"pebblesdb"
)

func smallSpec(p pebblesdb.Preset, name string) Spec {
	o := p.Options()
	Scale(o, 64) // shrink memtables/levels so tiny datasets still compact
	return Spec{Name: name, Options: o}
}

func TestOpenAndFill(t *testing.T) {
	db, err := Open(smallSpec(pebblesdb.PresetPebblesDB, "PebblesDB"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := FillRandom(db, 5000, 100000, 128, 1); err != nil {
		t.Fatal(err)
	}
	hits, err := ReadRandom(db, 1000, 100000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if hits == 0 {
		t.Fatal("no read hits after fill")
	}
}

func TestMeasureCapturesIOAndWriteAmp(t *testing.T) {
	db, err := Open(smallSpec(pebblesdb.PresetPebblesDB, "PebblesDB"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	res, err := Measure(db, "PebblesDB", "fillrandom", 5000, func() error {
		if err := FillRandom(db, 5000, 100000, 128, 1); err != nil {
			return err
		}
		return db.WaitIdle()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.KOpsPerSec <= 0 || res.WriteGB <= 0 || res.WriteAmp <= 0 {
		t.Fatalf("measurement incomplete: %+v", res)
	}
	if res.WriteAmp < 1 {
		t.Fatalf("write amp below 1 is impossible: %+v", res)
	}
}

func TestSeekAndDeleteWorkloads(t *testing.T) {
	db, err := Open(smallSpec(pebblesdb.PresetHyperLevelDB, "HyperLevelDB"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := FillSeq(db, 3000, 128, 1); err != nil {
		t.Fatal(err)
	}
	if err := SeekRandom(db, 200, 3000, 10, 2); err != nil {
		t.Fatal(err)
	}
	if err := DeleteRandom(db, 500, 3000, 3); err != nil {
		t.Fatal(err)
	}
}

func TestAgeChurnsStore(t *testing.T) {
	db, err := Open(smallSpec(pebblesdb.PresetPebblesDB, "PebblesDB"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := Age(db, 2000, 800, 800, 50000, 64, 1); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.Writes == 0 {
		t.Fatal("aging wrote nothing")
	}
}

func TestSSTableSizesDistribution(t *testing.T) {
	db, err := Open(smallSpec(pebblesdb.PresetPebblesDB, "PebblesDB"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := FillRandom(db, 8000, 100000, 256, 1); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactAll(); err != nil {
		t.Fatal(err)
	}
	d := SSTableSizes(db)
	if d.Count == 0 || d.MeanMB <= 0 {
		t.Fatalf("distribution empty: %+v", d)
	}
	if d.P95MB < d.MedianMB {
		t.Fatalf("p95 below median: %+v", d)
	}
}

func TestTableRendersRelative(t *testing.T) {
	results := []Result{
		{Store: "PebblesDB", Workload: "writes", KOpsPerSec: 270},
		{Store: "HyperLevelDB", Workload: "writes", KOpsPerSec: 100},
	}
	var buf bytes.Buffer
	Table(&buf, results, "HyperLevelDB")
	out := buf.String()
	if !strings.Contains(out, "2.70x") {
		t.Fatalf("relative value missing:\n%s", out)
	}
}

func TestDBAdapterScan(t *testing.T) {
	db, err := Open(smallSpec(pebblesdb.PresetPebblesDB, "PebblesDB"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	a := DBAdapter{DB: db}
	for i := 0; i < 100; i++ {
		a.Put(KeyAt(nil, uint64(i)), []byte("v"))
	}
	n, err := a.Scan(KeyAt(nil, 50), nil, 20)
	if err != nil || n != 20 {
		t.Fatalf("scan: %d %v", n, err)
	}
	n, _ = a.Scan(KeyAt(nil, 95), nil, 20)
	if n != 5 {
		t.Fatalf("tail scan: %d", n)
	}
}
