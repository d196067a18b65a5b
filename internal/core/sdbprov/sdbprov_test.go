package sdbprov

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/billing"
	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

func newTestLayer(t *testing.T, maxDelay time.Duration) (*Layer, *cloud.Cloud) {
	t.Helper()
	cl := cloud.New(cloud.Config{Seed: 1, MaxDelay: maxDelay})
	layer, err := New(Config{Cloud: cl})
	if err != nil {
		t.Fatal(err)
	}
	return layer, cl
}

func ref(obj string, v int) prov.Ref {
	return prov.Ref{Object: prov.ObjectID(obj), Version: prov.Version(v)}
}

func TestWriteFetchRoundTrip(t *testing.T) {
	layer, _ := newTestLayer(t, 0)
	subject := ref("/f", 2)
	records := []prov.Record{
		prov.NewString(subject, prov.AttrType, prov.TypeFile),
		prov.NewInput(subject, ref("/dep", 0)),
		prov.NewString(subject, prov.AttrEnv, ""), // empty value survives
	}
	if err := layer.WriteItem(context.Background(), subject, records, "cafebabe", "t"); err != nil {
		t.Fatal(err)
	}
	got, md5hex, ok, err := layer.FetchItem(context.Background(), subject)
	if err != nil || !ok {
		t.Fatalf("fetch: %v %v", ok, err)
	}
	if md5hex != "cafebabe" {
		t.Fatalf("md5 = %q", md5hex)
	}
	if len(got) != 3 {
		t.Fatalf("records = %v", got)
	}
	byAttr := map[string]prov.Record{}
	for _, r := range got {
		byAttr[r.Attr] = r
	}
	if byAttr[prov.AttrInput].Value.Ref != ref("/dep", 0) {
		t.Fatalf("input = %v", byAttr[prov.AttrInput])
	}
	if byAttr[prov.AttrEnv].Value.Str != "" {
		t.Fatalf("empty env = %v", byAttr[prov.AttrEnv])
	}
}

func TestFetchMissingItem(t *testing.T) {
	layer, _ := newTestLayer(t, 0)
	_, _, ok, err := layer.FetchItem(context.Background(), ref("/ghost", 0))
	if err != nil || ok {
		t.Fatalf("missing item: ok=%v err=%v", ok, err)
	}
}

func TestOverflowValueRoundTrip(t *testing.T) {
	layer, cl := newTestLayer(t, 0)
	subject := ref("/big", 0)
	big := strings.Repeat("V", 5000)
	records := []prov.Record{prov.NewString(subject, prov.AttrEnv, big)}

	putsBefore := cl.Usage().OpCount(billing.S3, "PUT")
	if err := layer.WriteItem(context.Background(), subject, records, "", "t"); err != nil {
		t.Fatal(err)
	}
	if got := cl.Usage().OpCount(billing.S3, "PUT") - putsBefore; got != 1 {
		t.Fatalf("overflow PUTs = %d, want 1", got)
	}
	got, _, ok, err := layer.FetchItem(context.Background(), subject)
	if err != nil || !ok || len(got) != 1 || got[0].Value.Str != big {
		t.Fatalf("round trip failed: %v %v %v", got, ok, err)
	}
}

func TestItemSpillBeyond256Attrs(t *testing.T) {
	layer, _ := newTestLayer(t, 0)
	subject := ref("/wide", 0)
	var records []prov.Record
	for i := 0; i < 700; i++ {
		records = append(records, prov.NewInput(subject, ref(fmt.Sprintf("/dep%04d", i), 0)))
	}
	if err := layer.WriteItem(context.Background(), subject, records, "beef", "t"); err != nil {
		t.Fatal(err)
	}
	got, md5hex, ok, err := layer.FetchItem(context.Background(), subject)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if md5hex != "beef" {
		t.Fatalf("md5 lost in spill: %q", md5hex)
	}
	if len(got) != 700 {
		t.Fatalf("records = %d, want 700", len(got))
	}
	seen := map[prov.Ref]bool{}
	for _, r := range got {
		seen[r.Value.Ref] = true
	}
	if len(seen) != 700 {
		t.Fatalf("distinct inputs = %d", len(seen))
	}
}

func TestEscapedLiteralRoundTripQuick(t *testing.T) {
	layer, _ := newTestLayer(t, 0)
	i := 0
	f := func(value string) bool {
		if len(value) > 900 || strings.ContainsRune(value, 0) {
			return true
		}
		i++
		subject := ref(fmt.Sprintf("/q%d", i), 0)
		records := []prov.Record{prov.NewString(subject, prov.AttrEnv, value)}
		if err := layer.WriteItem(context.Background(), subject, records, "", "t"); err != nil {
			return false
		}
		got, _, ok, err := layer.FetchItem(context.Background(), subject)
		return err == nil && ok && len(got) == 1 && got[0].Value.Str == value
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestConsistencyMD5(t *testing.T) {
	if ConsistencyMD5([]byte("a"), "x") == ConsistencyMD5([]byte("a"), "y") {
		t.Fatal("nonce has no effect")
	}
	if ConsistencyMD5([]byte("a"), "x") != ConsistencyMD5([]byte("a"), "x") {
		t.Fatal("not deterministic")
	}
	if len(ConsistencyMD5(nil, "")) != 32 {
		t.Fatal("not an MD5 hex digest")
	}
}

func TestVerifiedGetHappyPath(t *testing.T) {
	layer, cl := newTestLayer(t, 0)
	subject := ref("/v", 4)
	data := []byte("content")
	nonce := "4-abcd"
	if err := layer.WriteItem(context.Background(), subject, []prov.Record{
		prov.NewString(subject, prov.AttrType, prov.TypeFile),
	}, ConsistencyMD5(data, nonce), "t"); err != nil {
		t.Fatal(err)
	}
	meta := map[string]string{MetaNonce: nonce, MetaVersion: "4"}
	if err := cl.S3.Put(layer.Bucket(), DataKey("/v"), data, meta); err != nil {
		t.Fatal(err)
	}
	obj, err := layer.VerifiedGet(context.Background(), "/v")
	if err != nil {
		t.Fatal(err)
	}
	if obj.Ref != subject || string(obj.Data) != "content" || len(obj.Records) != 1 {
		t.Fatalf("obj = %+v", obj)
	}
}

func TestVerifiedGetDetectsTamperedData(t *testing.T) {
	layer, cl := newTestLayer(t, 0)
	subject := ref("/tampered", 0)
	nonce := "0-xyzw"
	if err := layer.WriteItem(context.Background(), subject, []prov.Record{
		prov.NewString(subject, prov.AttrType, prov.TypeFile),
	}, ConsistencyMD5([]byte("original"), nonce), "t"); err != nil {
		t.Fatal(err)
	}
	// The data stored does not match the consistency record.
	meta := map[string]string{MetaNonce: nonce, MetaVersion: "0"}
	if err := cl.S3.Put(layer.Bucket(), DataKey("/tampered"), []byte("doctored"), meta); err != nil {
		t.Fatal(err)
	}
	_, err := layer.VerifiedGet(context.Background(), "/tampered")
	if !errors.Is(err, core.ErrInconsistent) {
		t.Fatalf("err = %v, want ErrInconsistent", err)
	}
}

func TestVerifiedGetNotFound(t *testing.T) {
	layer, _ := newTestLayer(t, 0)
	_, err := layer.VerifiedGet(context.Background(), "/absent")
	if !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestVerifiedGetRetriesAcrossPropagation(t *testing.T) {
	// Data propagates before provenance: the verified reader must wait it
	// out (its RetryWait advances the clock) and succeed, not tear.
	layer, cl := newTestLayer(t, 10*time.Second)
	subject := ref("/slow", 0)
	data := []byte("slow data")
	nonce := "0-slow"
	meta := map[string]string{MetaNonce: nonce, MetaVersion: "0"}
	if err := cl.S3.Put(layer.Bucket(), DataKey("/slow"), data, meta); err != nil {
		t.Fatal(err)
	}
	if err := layer.WriteItem(context.Background(), subject, []prov.Record{
		prov.NewString(subject, prov.AttrType, prov.TypeFile),
	}, ConsistencyMD5(data, nonce), "t"); err != nil {
		t.Fatal(err)
	}
	obj, err := layer.VerifiedGet(context.Background(), "/slow")
	if err != nil {
		t.Fatalf("verified get across propagation: %v", err)
	}
	if string(obj.Data) != "slow data" {
		t.Fatalf("data = %q", obj.Data)
	}
}

func TestQueryEngineAgainstGroundTruth(t *testing.T) {
	layer, _ := newTestLayer(t, 0)
	ctx := context.Background()

	// blast -> out -> child; other -> other-out.
	blast := ref("proc/1/blast", 0)
	other := ref("proc/2/other", 0)
	out := ref("/out", 0)
	otherOut := ref("/other-out", 0)
	child := ref("/child", 0)
	write := func(subject prov.Ref, records ...prov.Record) {
		t.Helper()
		if err := layer.WriteItem(context.Background(), subject, records, "", "t"); err != nil {
			t.Fatal(err)
		}
	}
	write(blast,
		prov.NewString(blast, prov.AttrType, prov.TypeProcess),
		prov.NewString(blast, prov.AttrName, "blast"))
	write(other,
		prov.NewString(other, prov.AttrType, prov.TypeProcess),
		prov.NewString(other, prov.AttrName, "other"))
	write(out,
		prov.NewString(out, prov.AttrType, prov.TypeFile),
		prov.NewInput(out, blast))
	write(otherOut,
		prov.NewString(otherOut, prov.AttrType, prov.TypeFile),
		prov.NewInput(otherOut, other))
	write(child,
		prov.NewString(child, prov.AttrType, prov.TypeFile),
		prov.NewInput(child, out))

	outputs, err := core.CollectRefs(layer.Query(ctx, prov.QOutputsOf("blast")))
	if err != nil || len(outputs) != 1 || outputs[0] != out {
		t.Fatalf("OutputsOf = %v, %v", outputs, err)
	}
	desc, err := core.CollectRefs(layer.Query(ctx, prov.QDescendantsOfOutputs("blast")))
	if err != nil || len(desc) != 1 || desc[0] != child {
		t.Fatalf("Descendants = %v, %v", desc, err)
	}
	all, err := core.CollectRecords(layer.Query(ctx, prov.Q1()))
	if err != nil || len(all) != 5 {
		t.Fatalf("AllProvenance = %d, %v", len(all), err)
	}
}

func TestDependentsChunking(t *testing.T) {
	cl := cloud.New(cloud.Config{Seed: 1})
	layer, err := New(Config{Cloud: cl, QueryChunk: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// One tool with 10 instances, each producing one file: the dependents
	// query must chunk the OR expression (ceil(10/3) = 4 queries) and
	// still find everything.
	var instances []prov.Ref
	for i := 0; i < 10; i++ {
		inst := ref(fmt.Sprintf("proc/%d/tool", i), 0)
		instances = append(instances, inst)
		if err := layer.WriteItem(context.Background(), inst, []prov.Record{
			prov.NewString(inst, prov.AttrType, prov.TypeProcess),
			prov.NewString(inst, prov.AttrName, "tool"),
		}, "", "t"); err != nil {
			t.Fatal(err)
		}
		out := ref(fmt.Sprintf("/out%d", i), 0)
		if err := layer.WriteItem(context.Background(), out, []prov.Record{
			prov.NewString(out, prov.AttrType, prov.TypeFile),
			prov.NewInput(out, inst),
		}, "", "t"); err != nil {
			t.Fatal(err)
		}
	}
	before := cl.Usage()
	outputs, err := core.CollectRefs(layer.Query(ctx, prov.QOutputsOf("tool")))
	if err != nil {
		t.Fatal(err)
	}
	if len(outputs) != 10 {
		t.Fatalf("outputs = %d, want 10", len(outputs))
	}
	after := cl.Usage()
	// 1 instance Query plus ceil(10/3) = 4 dependents chunks, which ride
	// QueryWithAttributes so the type filter needs no per-item follow-up.
	queries := after.OpCount(billing.SimpleDB, "Query") - before.OpCount(billing.SimpleDB, "Query")
	chunks := after.OpCount(billing.SimpleDB, "QueryWithAttributes") - before.OpCount(billing.SimpleDB, "QueryWithAttributes")
	if queries < 1 || chunks < 4 {
		t.Fatalf("queries = %d, chunked attr queries = %d; chunking not exercised", queries, chunks)
	}
	// The N+1 is gone: no GetAttributes per dependent.
	if gets := after.OpCount(billing.SimpleDB, "GetAttributes") - before.OpCount(billing.SimpleDB, "GetAttributes"); gets != 0 {
		t.Fatalf("OutputsOf issued %d GetAttributes; type must ride the chunk queries", gets)
	}
}

// TestExplainPredictsRidingAttrPointerGets: a two-phase query whose filter
// attribute rides the phase-2 QueryWithAttributes must predict the S3 GET
// that decoding a pointer-encoded (overflow) value of that attribute
// issues — the metered==predicted contract holds for riding attributes too.
func TestExplainPredictsRidingAttrPointerGets(t *testing.T) {
	cl := cloud.New(cloud.Config{Seed: 1})
	layer, err := New(Config{Cloud: cl, DisableQueryCache: true})
	if err != nil {
		t.Fatal(err)
	}
	proc, out := ref("proc/1/blast", 0), ref("/out", 0)
	big := strings.Repeat("x", core.OverflowThreshold+1)
	if err := layer.WriteItem(context.Background(), proc, []prov.Record{
		prov.NewString(proc, prov.AttrType, prov.TypeProcess),
		prov.NewString(proc, prov.AttrName, "blast"),
	}, "", "t"); err != nil {
		t.Fatal(err)
	}
	if err := layer.WriteItem(context.Background(), out, []prov.Record{
		prov.NewString(out, prov.AttrType, prov.TypeFile),
		prov.NewInput(out, proc),
		prov.NewString(out, "notes", big), // stored as an S3 pointer
	}, "", "t"); err != nil {
		t.Fatal(err)
	}

	q := prov.Query{
		Tool:       "blast",
		Attrs:      []prov.AttrFilter{{Attr: "notes", Value: "short"}},
		Projection: prov.ProjectRefs,
	}
	plan := layer.Explain(q)
	if !plan.Exact {
		t.Fatalf("single-writer plan not exact: %+v", plan)
	}
	before := cl.Usage().TotalOps()
	entries, err := core.CollectEntries(layer.Query(context.Background(), q))
	if err != nil {
		t.Fatal(err)
	}
	metered := cl.Usage().TotalOps() - before
	if plan.EstOps != metered {
		t.Fatalf("Explain predicted %d ops, meters recorded %d\n%s", plan.EstOps, metered, plan)
	}
	if len(entries) != 0 {
		t.Fatalf("query matched %v, want none (the pointer value is not %q)", entries, "short")
	}
}

// TestFailedWriteLeavesNoPhantomCatalogItem: a write that fails before its
// SimpleDB item lands must not be mirrored into the planner catalog, or
// Explain would simulate plans over an item that does not exist.
func TestFailedWriteLeavesNoPhantomCatalogItem(t *testing.T) {
	faults := sim.NewFaultPlan()
	faults.Arm("t/after-spill-put")
	cl := cloud.New(cloud.Config{Seed: 1})
	layer, err := New(Config{Cloud: cl, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	subject := ref("/big", 0)
	records := make([]prov.Record, 0, sdb.MaxAttrsPerItem+10)
	for i := 0; i < sdb.MaxAttrsPerItem+10; i++ {
		records = append(records, prov.NewString(subject, fmt.Sprintf("k%03d", i), "v"))
	}
	if err := layer.WriteItem(context.Background(), subject, records, "", "t"); err == nil {
		t.Fatal("armed spill fault did not fire")
	}
	if n := layer.catalog.Items(); n != 0 {
		t.Fatalf("failed write left %d phantom catalog item(s)", n)
	}
}

func TestDefaultsAndAccessors(t *testing.T) {
	layer, cl := newTestLayer(t, 0)
	if layer.Bucket() != "pass" || layer.Domain() != "provenance" {
		t.Fatalf("defaults: %q %q", layer.Bucket(), layer.Domain())
	}
	if layer.Cloud() != cl {
		t.Fatal("Cloud accessor broken")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil cloud accepted")
	}
}

func TestWriteEncodedBatchGroupsItems(t *testing.T) {
	layer, cl := newTestLayer(t, 0)
	ctx := context.Background()

	// 27 small items: 25 fit the first BatchPutAttributes call, 2 the
	// second — two SimpleDB ops total instead of 27.
	var writes []ItemWrite
	for i := 0; i < 27; i++ {
		subject := ref(fmt.Sprintf("/batch/%02d", i), 0)
		writes = append(writes, ItemWrite{
			Subject: subject,
			Records: []prov.Record{
				prov.NewString(subject, prov.AttrType, prov.TypeFile),
				prov.NewString(subject, prov.AttrName, string(subject.Object)),
			},
		})
	}
	before := cl.Usage().Ops(billing.SimpleDB)
	if err := layer.WriteEncodedBatch(ctx, writes, "t"); err != nil {
		t.Fatal(err)
	}
	if got := cl.Usage().Ops(billing.SimpleDB) - before; got != 2 {
		t.Fatalf("27-item batch cost %d SimpleDB ops, want 2", got)
	}
	for _, w := range writes {
		records, _, ok, err := layer.FetchItem(context.Background(), w.Subject)
		if err != nil || !ok {
			t.Fatalf("fetch %v: ok=%v err=%v", w.Subject, ok, err)
		}
		if len(records) != 2 {
			t.Fatalf("records(%v) = %v", w.Subject, records)
		}
	}
}

func TestWriteEncodedBatchOversizedItemFallsBack(t *testing.T) {
	layer, _ := newTestLayer(t, 0)
	ctx := context.Background()

	// One item with >100 attributes cannot ride a single batch call: it
	// must take the chunked PutAttributes path, while its small sibling
	// still lands via the batch path.
	big := ref("/big", 0)
	var bigRecords []prov.Record
	for i := 0; i < 150; i++ {
		bigRecords = append(bigRecords, prov.NewInput(big, ref(fmt.Sprintf("/in/%03d", i), 0)))
	}
	small := ref("/small", 0)
	writes := []ItemWrite{
		{Subject: big, Records: bigRecords},
		{Subject: small, Records: []prov.Record{prov.NewString(small, prov.AttrType, prov.TypeFile)}, MD5: "beef"},
	}
	if err := layer.WriteEncodedBatch(ctx, writes, "t"); err != nil {
		t.Fatal(err)
	}
	records, _, ok, err := layer.FetchItem(context.Background(), big)
	if err != nil || !ok || len(records) != 150 {
		t.Fatalf("big item: ok=%v err=%v n=%d", ok, err, len(records))
	}
	_, md5hex, ok, err := layer.FetchItem(context.Background(), small)
	if err != nil || !ok || md5hex != "beef" {
		t.Fatalf("small item: ok=%v err=%v md5=%q", ok, err, md5hex)
	}
}

func TestWriteEncodedBatchCancellation(t *testing.T) {
	layer, _ := newTestLayer(t, 0)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	subject := ref("/c", 0)
	err := layer.WriteEncodedBatch(cctx, []ItemWrite{{Subject: subject,
		Records: []prov.Record{prov.NewString(subject, prov.AttrType, prov.TypeFile)}}}, "t")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, _, ok, _ := layer.FetchItem(context.Background(), subject); ok {
		t.Fatal("cancelled batch wrote an item")
	}
}

// --- query-performance subsystem -------------------------------------------

func TestEscapeQueryNeutralizesQuotes(t *testing.T) {
	if got := escapeQuery("no quotes"); got != "no quotes" {
		t.Fatalf("escapeQuery mangled a clean name: %q", got)
	}
	if got := escapeQuery("a'b"); got != "a''b" {
		t.Fatalf("escapeQuery(a'b) = %q, want doubled quote", got)
	}

	// End to end: an attribute name containing a quote travels through a
	// bracket expression without terminating the quoted name early. The
	// expression must parse and match only the intended item.
	layer, cl := newTestLayer(t, 0)
	hostile := "attr'] or ['type' = 'file"
	subject := ref("/esc", 0)
	if err := layer.WriteItem(context.Background(), subject, []prov.Record{
		prov.NewString(subject, prov.AttrType, prov.TypeFile),
	}, "", "t"); err != nil {
		t.Fatal(err)
	}
	// Unescaped, the quote closes the attribute name early and the rest of
	// the string leaks into the expression grammar.
	if _, err := cl.SDB.Query(layer.Domain(), "['"+hostile+"' = 'x']", 0, ""); err == nil {
		t.Fatal("unescaped quote did not corrupt the expression; hostile input too tame")
	}
	expr := "['" + escapeQuery(hostile) + "' = 'x']"
	res, err := cl.SDB.Query(layer.Domain(), expr, 0, "")
	if err != nil {
		t.Fatalf("escaped expression failed to parse: %v", err)
	}
	// The whole hostile string is one (absent) attribute name: no match.
	if len(res.ItemNames) != 0 {
		t.Fatalf("escaped query matched %v; quote broke out of the name", res.ItemNames)
	}
}

func TestOutputsOfNoNPlusOne(t *testing.T) {
	layer, cl := newTestLayer(t, 0)
	ctx := context.Background()

	// One tool, many dependents: the old path issued one GetAttributes per
	// dependent to read its type.
	tool := ref("proc/1/tool", 0)
	if err := layer.WriteItem(context.Background(), tool, []prov.Record{
		prov.NewString(tool, prov.AttrType, prov.TypeProcess),
		prov.NewString(tool, prov.AttrName, "tool"),
	}, "", "t"); err != nil {
		t.Fatal(err)
	}
	const deps = 40
	for i := 0; i < deps; i++ {
		out := ref(fmt.Sprintf("/out/%02d", i), 0)
		if err := layer.WriteItem(context.Background(), out, []prov.Record{
			prov.NewString(out, prov.AttrType, prov.TypeFile),
			prov.NewInput(out, tool),
		}, "", "t"); err != nil {
			t.Fatal(err)
		}
	}

	before := cl.Usage()
	outputs, err := core.CollectRefs(layer.Query(ctx, prov.QOutputsOf("tool")))
	if err != nil {
		t.Fatal(err)
	}
	if len(outputs) != deps {
		t.Fatalf("outputs = %d, want %d", len(outputs), deps)
	}
	after := cl.Usage()
	if gets := after.OpCount(billing.SimpleDB, "GetAttributes") - before.OpCount(billing.SimpleDB, "GetAttributes"); gets != 0 {
		t.Fatalf("OutputsOf issued %d GetAttributes for %d dependents (N+1 not fixed)", gets, deps)
	}
	// Total SimpleDB ops: 1 instance query + ceil(40/32) = 2 chunked
	// attribute queries — far under one op per dependent.
	if ops := after.Ops(billing.SimpleDB) - before.Ops(billing.SimpleDB); ops > 4 {
		t.Fatalf("OutputsOf cost %d SimpleDB ops for %d dependents", ops, deps)
	}
}

func TestLayerCacheRepeatQueriesFree(t *testing.T) {
	layer, cl := newTestLayer(t, 0)
	ctx := context.Background()
	tool := ref("proc/1/tool", 0)
	if err := layer.WriteItem(context.Background(), tool, []prov.Record{
		prov.NewString(tool, prov.AttrType, prov.TypeProcess),
		prov.NewString(tool, prov.AttrName, "tool"),
	}, "", "t"); err != nil {
		t.Fatal(err)
	}
	out := ref("/out", 0)
	if err := layer.WriteItem(context.Background(), out, []prov.Record{
		prov.NewString(out, prov.AttrType, prov.TypeFile),
		prov.NewInput(out, tool),
	}, "", "t"); err != nil {
		t.Fatal(err)
	}

	cold := []func() error{
		func() error { _, err := core.CollectRefs(layer.Query(ctx, prov.QOutputsOf("tool"))); return err },
		func() error {
			_, err := core.CollectRefs(layer.Query(ctx, prov.QDescendantsOfOutputs("tool")))
			return err
		},
		func() error { _, err := core.CollectRecords(layer.Query(ctx, prov.Q1())); return err },
		func() error { _, err := core.CollectRefs(layer.Query(ctx, prov.QDependents(tool.Object))); return err },
	}
	for _, q := range cold {
		if err := q(); err != nil {
			t.Fatal(err)
		}
	}
	before := cl.Usage().TotalOps()
	for _, q := range cold { // warm repeats
		if err := q(); err != nil {
			t.Fatal(err)
		}
	}
	if ops := cl.Usage().TotalOps() - before; ops != 0 {
		t.Fatalf("repeat queries cost %d cloud ops, want 0", ops)
	}

	// A write invalidates: the next query pays cloud ops again and sees
	// the new item.
	out2 := ref("/out2", 0)
	if err := layer.WriteItem(context.Background(), out2, []prov.Record{
		prov.NewString(out2, prov.AttrType, prov.TypeFile),
		prov.NewInput(out2, tool),
	}, "", "t"); err != nil {
		t.Fatal(err)
	}
	outputs, err := core.CollectRefs(layer.Query(ctx, prov.QOutputsOf("tool")))
	if err != nil || len(outputs) != 2 {
		t.Fatalf("OutputsOf after write = %v, %v; stale memo served", outputs, err)
	}
}

func TestUncachedLayerKeepsPaperCosts(t *testing.T) {
	cl := cloud.New(cloud.Config{Seed: 1})
	layer, err := New(Config{Cloud: cl, DisableQueryCache: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tool := ref("proc/1/tool", 0)
	if err := layer.WriteItem(context.Background(), tool, []prov.Record{
		prov.NewString(tool, prov.AttrType, prov.TypeProcess),
		prov.NewString(tool, prov.AttrName, "tool"),
	}, "", "t"); err != nil {
		t.Fatal(err)
	}
	if _, err := core.CollectRefs(layer.Query(ctx, prov.QOutputsOf("tool"))); err != nil {
		t.Fatal(err)
	}
	before := cl.Usage().TotalOps()
	if _, err := core.CollectRefs(layer.Query(ctx, prov.QOutputsOf("tool"))); err != nil {
		t.Fatal(err)
	}
	if ops := cl.Usage().TotalOps() - before; ops == 0 {
		t.Fatal("uncached repeat query cost 0 ops; the knob does not disable the cache")
	}
}

// TestNonCanonicalItemNameNeverAliasesSubject: an item planted under a
// non-canonical spelling of a genuine subject's name (/f_00 for /f:0) is a
// foreign item, so neither the scan nor the audit folds its attributes
// into the genuine subject's provenance.
func TestNonCanonicalItemNameNeverAliasesSubject(t *testing.T) {
	ctx := context.Background()
	layer, cl := newTestLayer(t, 0)
	subject := ref("/f", 0)
	if err := layer.WriteItem(ctx, subject, []prov.Record{prov.NewString(subject, prov.AttrType, prov.TypeFile)}, "", "t"); err != nil {
		t.Fatal(err)
	}
	planted := []sdb.ReplaceableAttr{{Name: prov.AttrType, Value: "planted"}}
	if err := cl.SDB.PutAttributes(layer.Domain(), "/f_00", planted); err != nil {
		t.Fatal(err)
	}
	check := func(where string, records []prov.Record) {
		t.Helper()
		if len(records) != 1 || records[0].Value.Str != prov.TypeFile {
			t.Fatalf("%s: %v carries %v, want only its own type record", where, subject, records)
		}
	}
	all, err := core.CollectRecords(layer.Query(ctx, prov.Q1()))
	if err != nil {
		t.Fatal(err)
	}
	check("Q1", all[subject])
	a, err := layer.Audit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	check("audit", a.Entries[subject])
}
