package prov

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func ref(obj string, v int) Ref {
	return Ref{Object: ObjectID(obj), Version: Version(v)}
}

func TestRefStringParse(t *testing.T) {
	cases := []Ref{
		ref("foo", 0),
		ref("/data/out.txt", 12),
		ref("proc/1423/blast", 3),
		ref("weird:name:with:colons", 7),
		ref("a_b_c", 9),
	}
	for _, r := range cases {
		got, err := ParseRef(r.String())
		if err != nil || got != r {
			t.Fatalf("round trip %v: got %v, err %v", r, got, err)
		}
	}
}

func TestParseRefErrors(t *testing.T) {
	for _, s := range []string{"", "noversion", "a:", ":1", "a:-1", "a:x"} {
		if _, err := ParseRef(s); err == nil {
			t.Fatalf("ParseRef(%q) succeeded", s)
		}
	}
}

func TestRefRoundTripQuick(t *testing.T) {
	f := func(obj string, v uint16) bool {
		if obj == "" {
			return true
		}
		r := Ref{Object: ObjectID(obj), Version: Version(v)}
		got, err := ParseRef(r.String())
		return err == nil && got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValueAndRecordBasics(t *testing.T) {
	in := NewInput(ref("child", 1), ref("parent", 2))
	if in.Value.Kind != KindRef || in.Value.String() != "parent:2" {
		t.Fatalf("input record: %+v", in)
	}
	s := NewString(ref("child", 1), AttrName, "/bin/blast")
	if s.Value.Kind != KindString || s.Value.String() != "/bin/blast" {
		t.Fatalf("string record: %+v", s)
	}
	if got := s.Size(); got != len(AttrName)+len("/bin/blast") {
		t.Fatalf("Size = %d", got)
	}
	if got := RecordsSize([]Record{in, s}); got != int64(in.Size()+s.Size()) {
		t.Fatalf("RecordsSize = %d", got)
	}
	if !strings.Contains(in.String(), "input=parent:2") {
		t.Fatalf("Record.String = %q", in.String())
	}
}

func TestBySubject(t *testing.T) {
	records := []Record{
		NewString(ref("a", 0), AttrType, TypeFile),
		NewString(ref("b", 0), AttrType, TypeFile),
		NewInput(ref("a", 0), ref("b", 0)),
	}
	grouped := BySubject(records)
	if len(grouped) != 2 || len(grouped[ref("a", 0)]) != 2 || len(grouped[ref("b", 0)]) != 1 {
		t.Fatalf("grouped = %v", grouped)
	}
}

// sampleRecords builds a small pipeline: proc reads in.dat, writes out.dat.
func sampleRecords() []Record {
	proc := ref("proc/9/tool", 0)
	in := ref("/in.dat", 0)
	out := ref("/out.dat", 1)
	return []Record{
		NewString(in, AttrType, TypeFile),
		NewString(in, AttrName, "/in.dat"),
		NewString(proc, AttrType, TypeProcess),
		NewString(proc, AttrName, "tool"),
		NewString(proc, AttrArgv, "tool -x /in.dat"),
		NewInput(proc, in),
		NewString(out, AttrType, TypeFile),
		NewString(out, AttrName, "/out.dat"),
		NewInput(out, proc),
	}
}

func TestGraphEdgesAndClosures(t *testing.T) {
	g := NewGraph()
	g.AddAll(sampleRecords())

	proc := ref("proc/9/tool", 0)
	in := ref("/in.dat", 0)
	out := ref("/out.dat", 1)

	if g.Len() != 3 || g.NumRecords() != 9 {
		t.Fatalf("Len=%d NumRecords=%d", g.Len(), g.NumRecords())
	}
	if got := g.Inputs(out); !reflect.DeepEqual(got, []Ref{proc}) {
		t.Fatalf("Inputs(out) = %v", got)
	}
	if got := g.Ancestors(out); !reflect.DeepEqual(got, []Ref{in, proc}) {
		t.Fatalf("Ancestors(out) = %v", got)
	}
	if got := g.Descendants(in); !reflect.DeepEqual(got, []Ref{out, proc}) {
		t.Fatalf("Descendants(in) = %v", got)
	}
	if got := g.Children(in); !reflect.DeepEqual(got, []Ref{proc}) {
		t.Fatalf("Children(in) = %v", got)
	}
	if got := g.FindByAttr(AttrName, "tool"); !reflect.DeepEqual(got, []Ref{proc}) {
		t.Fatalf("FindByAttr = %v", got)
	}
	if !g.Has(proc) || g.Has(ref("ghost", 0)) {
		t.Fatal("Has misbehaves")
	}
}

func TestGraphAcyclicity(t *testing.T) {
	g := NewGraph()
	g.AddAll(sampleRecords())
	if !g.IsAcyclic() {
		t.Fatal("sample graph reported cyclic")
	}
	// Introduce a cycle: in.dat depends on out.dat.
	g.Add(NewInput(ref("/in.dat", 0), ref("/out.dat", 1)))
	if g.IsAcyclic() {
		t.Fatal("cycle not detected")
	}
}

func TestGraphMissingAncestors(t *testing.T) {
	g := NewGraph()
	g.AddAll(sampleRecords())
	if got := g.MissingAncestors(); len(got) != 0 {
		t.Fatalf("complete graph missing %v", got)
	}
	g.Add(NewInput(ref("/late.dat", 0), ref("/never-stored.dat", 4)))
	got := g.MissingAncestors()
	if len(got) != 1 || got[0] != ref("/never-stored.dat", 4) {
		t.Fatalf("MissingAncestors = %v", got)
	}
}

func TestGraphDiamondClosure(t *testing.T) {
	// a -> b, a -> c, b -> d, c -> d: descendants of d must list each once.
	g := NewGraph()
	a, b, c, d := ref("a", 0), ref("b", 0), ref("c", 0), ref("d", 0)
	g.Add(NewInput(a, b))
	g.Add(NewInput(a, c))
	g.Add(NewInput(b, d))
	g.Add(NewInput(c, d))
	if got := g.Descendants(d); !reflect.DeepEqual(got, []Ref{a, b, c}) {
		t.Fatalf("Descendants = %v", got)
	}
	if got := g.Ancestors(a); !reflect.DeepEqual(got, []Ref{b, c, d}) {
		t.Fatalf("Ancestors = %v", got)
	}
}

func TestWriteDOT(t *testing.T) {
	g := NewGraph()
	g.AddAll(sampleRecords())
	var b strings.Builder
	if err := g.WriteDOT(&b); err != nil {
		t.Fatal(err)
	}
	dot := b.String()
	for _, want := range []string{"digraph provenance", `"/out.dat:1" -> "proc/9/tool:0"`, "ellipse"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestS3MetadataRoundTrip(t *testing.T) {
	subject := ref("/out.dat", 1)
	records := []Record{
		NewString(subject, AttrType, TypeFile),
		NewInput(subject, ref("proc/9/tool", 0)),
		NewString(subject, AttrName, "/out.dat"),
		NewString(subject, AttrEnv, ""), // empty value must survive
	}
	meta := EncodeS3Metadata(records)
	got, err := DecodeS3Metadata(subject, meta)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, records) {
		t.Fatalf("round trip:\n got %v\nwant %v", got, records)
	}
}

func TestS3MetadataIgnoresForeignKeys(t *testing.T) {
	subject := ref("x", 0)
	meta := EncodeS3Metadata([]Record{NewString(subject, AttrType, TypeFile)})
	meta["nonce"] = "42"
	meta["overflow"] = "bucket/key"
	got, err := DecodeS3Metadata(subject, meta)
	if err != nil || len(got) != 1 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestS3MetadataOrdering(t *testing.T) {
	subject := ref("x", 0)
	var records []Record
	for i := 0; i < 15; i++ {
		records = append(records, NewString(subject, AttrEnv, fmt.Sprintf("v%d", i)))
	}
	meta := EncodeS3Metadata(records)
	got, err := DecodeS3Metadata(subject, meta)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r.Value.Str != fmt.Sprintf("v%d", i) {
			t.Fatalf("order broken at %d: %v", i, got)
		}
	}
}

func TestS3MetadataMalformed(t *testing.T) {
	subject := ref("x", 0)
	if _, err := DecodeS3Metadata(subject, map[string]string{"p-0": "no-separator"}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("missing separator: %v", err)
	}
	if _, err := DecodeS3Metadata(subject, map[string]string{"p-0": "input\x1fnot-a-ref"}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("bad ref: %v", err)
	}
}

func TestS3MetadataSize(t *testing.T) {
	meta := map[string]string{"ab": "cde", "f": ""}
	if got := S3MetadataSize(meta); got != 6 {
		t.Fatalf("S3MetadataSize = %d, want 6", got)
	}
}

func TestItemNameRoundTrip(t *testing.T) {
	cases := []Ref{
		ref("foo", 2),
		ref("/data/my_file.txt", 0),
		ref("a_b", 10),
	}
	for _, r := range cases {
		got, err := ParseItemName(EncodeItemName(r))
		if err != nil || got != r {
			t.Fatalf("item name round trip %v: %v, %v", r, got, err)
		}
	}
	// The paper's own example.
	if EncodeItemName(ref("foo", 2)) != "foo_2" {
		t.Fatalf("EncodeItemName(foo:2) = %q, want foo_2", EncodeItemName(ref("foo", 2)))
	}
}

func TestParseItemNameErrors(t *testing.T) {
	// Non-canonical versions (leading zeros, a sign) would alias the
	// genuine x_7 subject.
	for _, s := range []string{"", "plain", "_2", "x_", "x_y", "x_07", "x_+7", "x_0007", "x_-0", "x_00"} {
		if _, err := ParseItemName(s); err == nil {
			t.Fatalf("ParseItemName(%q) succeeded", s)
		}
	}
}

func TestSDBAttrsRoundTrip(t *testing.T) {
	subject := ref("foo", 2)
	records := []Record{
		NewInput(subject, ref("bar", 2)),
		NewString(subject, AttrType, TypeFile),
	}
	attrs := EncodeSDBAttrs(records)
	// The paper's §4.2 representation.
	want := []SDBAttr{{"input", "bar:2"}, {"type", "file"}}
	if !reflect.DeepEqual(attrs, want) {
		t.Fatalf("attrs = %v, want %v", attrs, want)
	}
	got, err := DecodeSDBAttrs(subject, attrs, nil)
	if err != nil || !reflect.DeepEqual(got, records) {
		t.Fatalf("round trip: %v, %v", got, err)
	}
}

func TestSDBAttrsIgnoreSet(t *testing.T) {
	subject := ref("foo", 2)
	attrs := []SDBAttr{
		{"md5", "abc123"},
		{"type", "file"},
	}
	got, err := DecodeSDBAttrs(subject, attrs, map[string]bool{"md5": true})
	if err != nil || len(got) != 1 || got[0].Attr != "type" {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestJSONRecordsRoundTrip(t *testing.T) {
	records := sampleRecords()
	records = append(records, NewString(ref("e", 0), AttrEnv, "")) // empty string value
	data, err := MarshalJSONRecords(records)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalJSONRecords(data)
	if err != nil || !reflect.DeepEqual(got, records) {
		t.Fatalf("round trip failed: %v / %v", got, err)
	}
}

func TestJSONRecordsRoundTripQuick(t *testing.T) {
	f := func(obj string, ver uint8, attr string, val string, isRef bool) bool {
		if obj == "" || attr == "" || attr == AttrInput {
			return true
		}
		subject := Ref{Object: ObjectID(obj), Version: Version(ver)}
		var rec Record
		if isRef {
			rec = NewInput(subject, ref("dep", 3))
		} else {
			rec = NewString(subject, attr, val)
		}
		data, err := MarshalJSONRecords([]Record{rec})
		if err != nil {
			return false
		}
		got, err := UnmarshalJSONRecords(data)
		return err == nil && len(got) == 1 && got[0] == rec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalJSONErrors(t *testing.T) {
	for _, data := range []string{
		"not json",
		`[{"s":"bad","a":"x","t":true}]`,          // malformed subject ref
		`[{"s":"a:1","a":"","t":true}]`,           // empty attr
		`[{"s":"a:1","a":"input","r":"notaref"}]`, // bad ref value
	} {
		if _, err := UnmarshalJSONRecords([]byte(data)); !errors.Is(err, ErrMalformed) {
			t.Fatalf("data %q: err = %v, want ErrMalformed", data, err)
		}
	}
}

func TestChunkJSONRespectsBudgetAndOrder(t *testing.T) {
	subject := ref("s", 0)
	var records []Record
	for i := 0; i < 200; i++ {
		records = append(records, NewString(subject, AttrEnv, fmt.Sprintf("value-%04d", i)))
	}
	const budget = 512
	chunks, err := ChunkJSON(records, budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 2 {
		t.Fatalf("expected multiple chunks, got %d", len(chunks))
	}
	var reassembled []Record
	for i, c := range chunks {
		if len(c) > budget {
			t.Fatalf("chunk %d is %d bytes > budget %d", i, len(c), budget)
		}
		part, err := UnmarshalJSONRecords(c)
		if err != nil {
			t.Fatalf("chunk %d undecodable: %v", i, err)
		}
		reassembled = append(reassembled, part...)
	}
	if !reflect.DeepEqual(reassembled, records) {
		t.Fatal("reassembly lost or reordered records")
	}
}

func TestChunkJSONOversizedSingleRecord(t *testing.T) {
	subject := ref("s", 0)
	big := NewString(subject, AttrEnv, strings.Repeat("x", 2000))
	chunks, err := ChunkJSON([]Record{big}, 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 1 || len(chunks[0]) <= 512 {
		t.Fatalf("oversized record should become its own oversized chunk; got %d chunks", len(chunks))
	}
}

func TestChunkJSONEmpty(t *testing.T) {
	chunks, err := ChunkJSON(nil, 100)
	if err != nil || chunks != nil {
		t.Fatalf("empty input: %v, %v", chunks, err)
	}
}

func TestChunkJSONMatchesMarshalQuick(t *testing.T) {
	// Property: chunking then concatenating record lists equals the input.
	f := func(vals []string, budgetRaw uint8) bool {
		budget := 64 + int(budgetRaw)*8
		subject := ref("s", 0)
		var records []Record
		for _, v := range vals {
			records = append(records, NewString(subject, AttrEnv, v))
		}
		chunks, err := ChunkJSON(records, budget)
		if err != nil {
			return false
		}
		var out []Record
		for _, c := range chunks {
			part, err := UnmarshalJSONRecords(c)
			if err != nil {
				return false
			}
			out = append(out, part...)
		}
		if len(out) != len(records) {
			return false
		}
		for i := range out {
			if out[i] != records[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
