package cost

import (
	"context"
	"strings"
	"testing"

	"passcloud/internal/pass"
	"passcloud/internal/prov"
)

func TestCollectorCounts(t *testing.T) {
	c := &Collector{}
	fileRef := prov.Ref{Object: "/f", Version: 0}
	procRef := prov.Ref{Object: "proc/1/t", Version: 0}

	big := strings.Repeat("e", 2000)
	events := []pass.FlushEvent{
		{Ref: procRef, Type: prov.TypeProcess, Records: []prov.Record{
			prov.NewString(procRef, prov.AttrType, prov.TypeProcess),
			prov.NewString(procRef, prov.AttrEnv, big),
		}},
		{Ref: fileRef, Type: prov.TypeFile, Data: []byte("12345"), Records: []prov.Record{
			prov.NewString(fileRef, prov.AttrType, prov.TypeFile),
			prov.NewInput(fileRef, procRef),
		}},
	}
	if err := c.Flush(context.Background(), events); err != nil {
		t.Fatal(err)
	}
	st := c.Stats
	if st.Objects != 1 || st.Transients != 1 || st.Items != 2 {
		t.Fatalf("counts = %+v", st)
	}
	if st.DataBytes != 5 {
		t.Fatalf("DataBytes = %d", st.DataBytes)
	}
	if st.Records != 4 {
		t.Fatalf("Records = %d", st.Records)
	}
	if st.BigRecords != 1 {
		t.Fatalf("BigRecords = %d", st.BigRecords)
	}
	if st.ProvS3Bytes <= 0 || st.ProvSDBBytes <= st.ProvS3Bytes/2 {
		t.Fatalf("prov sizes = %d / %d", st.ProvS3Bytes, st.ProvSDBBytes)
	}
}

func TestCollectorTee(t *testing.T) {
	c := &Collector{}
	passed := 0
	fn := c.Tee(func(_ context.Context, batch []pass.FlushEvent) error { passed += len(batch); return nil })
	ref := prov.Ref{Object: "/f", Version: 0}
	ev := pass.FlushEvent{Ref: ref, Type: prov.TypeFile, Data: []byte("x"),
		Records: []prov.Record{prov.NewString(ref, prov.AttrType, prov.TypeFile)}}
	if err := fn(context.Background(), []pass.FlushEvent{ev}); err != nil {
		t.Fatal(err)
	}
	if passed != 1 || c.Stats.Objects != 1 {
		t.Fatalf("tee: passed=%d stats=%+v", passed, c.Stats)
	}
	// Nil next is fine.
	if err := c.Tee(nil)(context.Background(), []pass.FlushEvent{ev}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateFormulas(t *testing.T) {
	st := DatasetStats{
		Objects:      31_180,
		DataBytes:    1_363_148_800, // ~1.27 GB
		ProvS3Bytes:  127_716_556,   // ~121.8 MB
		ProvSDBBytes: 175_947_776,   // ~167.8 MB
		Items:        143_562,
		BigRecords:   24_952,
	}
	tbl := Estimate(st)
	if tbl.RawOps != 31_180 {
		t.Fatalf("RawOps = %d", tbl.RawOps)
	}
	rows := map[string]Table2Row{}
	for _, r := range tbl.Rows {
		rows[r.Arch] = r
	}

	// Architecture 1: ops = big records only.
	if got := rows["s3"].ProvOps; got != 24_952 {
		t.Fatalf("s3 ops = %d, want 24952", got)
	}
	// Architecture 2: items + big records.
	if got := rows["s3+sdb"].ProvOps; got != 143_562+24_952 {
		t.Fatalf("s3+sdb ops = %d", got)
	}
	// Architecture 3: 2*(objects + prov/8KB) + items + big records.
	wantOps := 2*(int64(31_180)+st.ProvS3Bytes/8192) + 143_562 + 24_952
	if got := rows["s3+sdb+sqs"].ProvOps; got != wantOps {
		t.Fatalf("s3+sdb+sqs ops = %d, want %d", got, wantOps)
	}
	// Architecture 3 storage: 2*S_SQS + S_SimpleDB.
	if got := rows["s3+sdb+sqs"].ProvBytes; got != 2*st.ProvS3Bytes+st.ProvSDBBytes {
		t.Fatalf("s3+sdb+sqs bytes = %d", got)
	}

	// The paper's ordering: each architecture costs more than the last.
	if !(rows["s3"].ProvBytes < rows["s3+sdb"].ProvBytes &&
		rows["s3+sdb"].ProvBytes < rows["s3+sdb+sqs"].ProvBytes) {
		t.Fatal("storage ordering violated")
	}
	if !(rows["s3"].ProvOps < rows["s3+sdb"].ProvOps &&
		rows["s3+sdb"].ProvOps < rows["s3+sdb+sqs"].ProvOps) {
		t.Fatal("ops ordering violated")
	}
}

func TestStatsScale(t *testing.T) {
	st := DatasetStats{Objects: 100, DataBytes: 1000, Items: 300}
	up := st.Scale(0.1)
	if up.Objects != 1000 || up.DataBytes != 10000 || up.Items != 3000 {
		t.Fatalf("scaled = %+v", up)
	}
	same := st.Scale(1)
	if same != st {
		t.Fatalf("scale 1 changed stats: %+v", same)
	}
}

func TestTableRendering(t *testing.T) {
	t2 := &Table2{RawBytes: 1 << 30, RawOps: 1000, Method: "measured", Scale: 0.1,
		Rows: []Table2Row{{Arch: "s3", ProvBytes: 100 << 20, ProvOps: 800}}}
	s := t2.String()
	for _, want := range []string{"Raw", "1.00GB", "100.0MB", "9.8%", "0.8x"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table2 output missing %q:\n%s", want, s)
		}
	}

	t3 := &Table3{Tool: "softmean", Scale: 0.1, Rows: []Table3Row{
		{Query: "Q.1", Arch: "S3", DataOut: 2048, Ops: 56, Results: 7}}}
	s = t3.String()
	for _, want := range []string{"Q.1", "S3", "2.0KB", "56"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table3 output missing %q:\n%s", want, s)
		}
	}

	s = Table1Report([]Table1Row{{Arch: "s3", Atomicity: true, Consistency: true, CausalOrdering: true}})
	if !strings.Contains(s, "yes") || !strings.Contains(s, "no") {
		t.Fatalf("Table1 output wrong:\n%s", s)
	}
}

// TestHarnessEndToEndSmall runs the full measured pipeline at a tiny scale
// and validates the paper's qualitative results: storage ordering, ops
// ordering, and the query-cost separation between S3 and SimpleDB.
func TestHarnessEndToEndSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run is slow")
	}
	ctx := context.Background()
	h := &Harness{Scale: 0.01, Seed: 2009}

	t2, err := h.Table2Measured(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", t2)
	rows := map[string]Table2Row{}
	for _, r := range t2.Rows {
		rows[r.Arch] = r
	}
	if !(rows["s3"].ProvOps < rows["s3+sdb"].ProvOps &&
		rows["s3+sdb"].ProvOps < rows["s3+sdb+sqs"].ProvOps) {
		t.Errorf("ops ordering violated: %+v", rows)
	}
	// Storage: the third architecture must dominate; the first two land
	// close together in the measured implementation (our S3 encoding pays
	// subject prefixes for piggybacked transient provenance, which the
	// paper's idealized accounting does not — see EXPERIMENTS.md).
	if rows["s3+sdb+sqs"].ProvBytes <= rows["s3+sdb"].ProvBytes {
		t.Errorf("s3+sdb+sqs storage must dominate: %+v", rows)
	}
	ratio := float64(rows["s3"].ProvBytes) / float64(rows["s3+sdb"].ProvBytes)
	if ratio < 0.6 || ratio > 1.6 {
		t.Errorf("s3 vs s3+sdb storage ratio %.2f outside comparable band", ratio)
	}
	// Overhead magnitude: around 10% for s3, tens of percent for sqs.
	s3Overhead := float64(rows["s3"].ProvBytes) / float64(t2.RawBytes)
	if s3Overhead < 0.03 || s3Overhead > 0.3 {
		t.Errorf("s3 provenance overhead = %.1f%%, out of plausible band", 100*s3Overhead)
	}
	// Golden Table 2: the orderings above tolerate a refactor that shifts
	// op counts; these exact values do not.
	wantT2 := map[string]Table2Row{
		"s3":         {ProvOps: 334, ProvBytes: 1709231},
		"s3+sdb":     {ProvOps: 682, ProvBytes: 1557313},
		"s3+sdb+sqs": {ProvOps: 6870, ProvBytes: 3765822},
	}
	for arch, want := range wantT2 {
		got := rows[arch]
		if got.ProvOps != want.ProvOps || got.ProvBytes != want.ProvBytes {
			t.Errorf("Table 2 %s: ops=%d bytes=%d, golden ops=%d bytes=%d",
				arch, got.ProvOps, got.ProvBytes, want.ProvOps, want.ProvBytes)
		}
	}

	t3, err := h.Table3Measured(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", t3)
	get := func(q, arch string) Table3Row {
		for _, r := range t3.Rows {
			if r.Query == q && r.Arch == arch {
				return r
			}
		}
		t.Fatalf("row %s/%s missing", q, arch)
		return Table3Row{}
	}
	// Q.2/Q.3: SimpleDB must beat S3 by a wide margin in ops and data.
	for _, q := range []string{"Q.2", "Q.3"} {
		s3row, sdbRow := get(q, "S3"), get(q, "SimpleDB")
		if sdbRow.Ops*10 > s3row.Ops {
			t.Errorf("%s: SimpleDB ops %d not an order of magnitude under S3 ops %d", q, sdbRow.Ops, s3row.Ops)
		}
		if sdbRow.DataOut*10 > s3row.DataOut {
			t.Errorf("%s: SimpleDB data %d not far under S3 data %d", q, sdbRow.DataOut, s3row.DataOut)
		}
		// Same answers on both backends.
		if s3row.Results != sdbRow.Results {
			t.Errorf("%s: result counts differ: S3 %d vs SimpleDB %d", q, s3row.Results, sdbRow.Results)
		}
	}
	// Q.1 returns every subject on both backends.
	if q1s3, q1sdb := get("Q.1", "S3"), get("Q.1", "SimpleDB"); q1s3.Results != q1sdb.Results {
		t.Errorf("Q.1 subject counts differ: %d vs %d", q1s3.Results, q1sdb.Results)
	}
	// Golden Table 3: exact ops, bytes out and result counts per row.
	for _, want := range []Table3Row{
		{Query: "Q.1", Arch: "S3", Ops: 649, DataOut: 1740994, Results: 1369},
		{Query: "Q.1", Arch: "SimpleDB", Ops: 1698, DataOut: 1488486, Results: 1369},
		{Query: "Q.2", Arch: "S3", Ops: 649, DataOut: 1740994, Results: 2},
		{Query: "Q.2", Arch: "SimpleDB", Ops: 2, DataOut: 85, Results: 2},
		{Query: "Q.3", Arch: "S3", Ops: 649, DataOut: 1740994, Results: 12},
		{Query: "Q.3", Arch: "SimpleDB", Ops: 7, DataOut: 352, Results: 12},
	} {
		if got := get(want.Query, want.Arch); got != want {
			t.Errorf("Table 3 %s/%s: %+v, golden %+v", want.Query, want.Arch, got, want)
		}
	}
}
