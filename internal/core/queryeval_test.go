package core

import (
	"reflect"
	"testing"

	"passcloud/internal/prov"
)

func evalRef(obj string, v int) prov.Ref {
	return prov.Ref{Object: prov.ObjectID(obj), Version: prov.Version(v)}
}

// evalGraph builds the reference topology:
//
//	proc (name=blast, process)
//	  └─ out1 (file)  ── child1 (file) ── grand (file)
//	/x:0 ── /x:1 (version chain)
func evalGraph() *prov.Graph {
	g := prov.NewGraph()
	proc, out1 := evalRef("proc/1/blast", 0), evalRef("/out1", 0)
	child1, grand := evalRef("/child1", 0), evalRef("/grand", 0)
	x0, x1 := evalRef("/x", 0), evalRef("/x", 1)
	g.AddAll([]prov.Record{
		prov.NewString(proc, prov.AttrType, prov.TypeProcess),
		prov.NewString(proc, prov.AttrName, "blast"),
		prov.NewString(out1, prov.AttrType, prov.TypeFile),
		prov.NewInput(out1, proc),
		prov.NewString(child1, prov.AttrType, prov.TypeFile),
		prov.NewInput(child1, out1),
		prov.NewString(grand, prov.AttrType, prov.TypeFile),
		prov.NewInput(grand, child1),
		prov.NewString(x0, prov.AttrType, prov.TypeFile),
		prov.NewString(x1, prov.AttrType, prov.TypeFile),
		prov.NewInput(x1, x0),
	})
	return g
}

func refsOf(entries []Entry) []prov.Ref {
	out := make([]prov.Ref, len(entries))
	for i, e := range entries {
		out[i] = e.Ref
	}
	return out
}

func TestEvalQueryShapes(t *testing.T) {
	g := evalGraph()
	cases := []struct {
		name string
		q    prov.Query
		want []prov.Ref
	}{
		{"q2", prov.QOutputsOf("blast"), []prov.Ref{evalRef("/out1", 0)}},
		{"q3", prov.QDescendantsOfOutputs("blast"),
			[]prov.Ref{evalRef("/child1", 0), evalRef("/grand", 0)}},
		{"q3 depth1", prov.Query{Tool: "blast", Type: prov.TypeFile,
			Direction: prov.TraverseDescendants, Depth: 1},
			[]prov.Ref{evalRef("/child1", 0)}},
		{"dependents includes later versions", prov.QDependents("/x"),
			[]prov.Ref{evalRef("/x", 1)}},
		{"descendants exclude seeds by default",
			prov.Query{RefPrefix: "/x:", Direction: prov.TraverseDescendants, Depth: 1},
			nil},
		{"ancestors", prov.QAncestors(evalRef("/grand", 0)),
			[]prov.Ref{evalRef("/child1", 0), evalRef("/out1", 0), evalRef("proc/1/blast", 0)}},
		{"ancestors depth1", prov.Query{Refs: []prov.Ref{evalRef("/grand", 0)},
			Direction: prov.TraverseAncestors, Depth: 1},
			[]prov.Ref{evalRef("/child1", 0)}},
		{"attr filter", prov.Query{Type: prov.TypeProcess},
			[]prov.Ref{evalRef("proc/1/blast", 0)}},
		{"prefix", prov.Query{RefPrefix: "/x"},
			[]prov.Ref{evalRef("/x", 0), evalRef("/x", 1)}},
		{"pinned refs keep unknown", prov.Query{Refs: []prov.Ref{evalRef("/ghost", 9)}},
			[]prov.Ref{evalRef("/ghost", 9)}},
		{"pinned refs with filter drop unknown",
			prov.Query{Refs: []prov.Ref{evalRef("/ghost", 9)}, Type: prov.TypeFile},
			nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := EvalQueryRefs(g, tc.q)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("EvalQueryRefs(%+v) = %v, want %v", tc.q, got, tc.want)
			}
		})
	}
}

func TestEvalQueryProjection(t *testing.T) {
	g := evalGraph()
	full := EvalQuery(g, prov.Query{Type: prov.TypeProcess, Projection: prov.ProjectFull})
	if len(full) != 1 || len(full[0].Records) != 2 {
		t.Fatalf("full projection = %+v", full)
	}
	refs := EvalQuery(g, prov.Query{Type: prov.TypeProcess, Projection: prov.ProjectRefs})
	if len(refs) != 1 || refs[0].Records != nil {
		t.Fatalf("refs projection = %+v", refs)
	}
}

func TestEvalQueryIncludeSeeds(t *testing.T) {
	g := evalGraph()
	// /x:1 is both a seed (matches the prefix) and a descendant of /x:0.
	q := prov.Query{RefPrefix: "/x:", Direction: prov.TraverseDescendants, Depth: 1, IncludeSeeds: true}
	got := EvalQueryRefs(g, q)
	if !reflect.DeepEqual(got, []prov.Ref{evalRef("/x", 1)}) {
		t.Fatalf("IncludeSeeds = %v", got)
	}
}

// TestEvalQueryEdgeOnlySeeds: a descendants traversal must also seed refs
// that exist only as input edges. On S3-only an overwrite erases the
// superseded version's records from the scan graph, leaving the version
// visible solely through its consumers' input records — its dependents
// must still be found, as SimpleDB's starts-with-on-input plan does.
func TestEvalQueryEdgeOnlySeeds(t *testing.T) {
	g := prov.NewGraph()
	proc := evalRef("proc/1/analyze", 0)
	v0, v1 := evalRef("/data", 0), evalRef("/data", 1)
	g.AddAll([]prov.Record{
		// /data:0 itself has no records: its metadata was overwritten.
		prov.NewString(proc, prov.AttrType, prov.TypeProcess),
		prov.NewInput(proc, v0),
		prov.NewString(v1, prov.AttrType, prov.TypeFile),
	})

	got := EvalQueryRefs(g, prov.QDependents("/data"))
	if !reflect.DeepEqual(got, []prov.Ref{proc}) {
		t.Fatalf("dependents over edge-only seed = %v, want [%v]", got, proc)
	}
	// Record-bearing filters still exclude edge-only refs: nothing asserts
	// attributes about them.
	typed := prov.Query{RefPrefix: "/data:", Type: prov.TypeFile,
		Direction: prov.TraverseDescendants, Depth: 1, IncludeSeeds: true}
	if got := EvalQueryRefs(g, typed); len(got) != 0 {
		t.Fatalf("typed filter matched an edge-only ref: %v", got)
	}
}

// TestPaperDescriptorsMatchGraphWalks: the paper's Q.2 and Q.3
// descriptors evaluate to exactly what direct walks of the graph find.
func TestPaperDescriptorsMatchGraphWalks(t *testing.T) {
	g := evalGraph()
	outputs := map[prov.Ref]bool{}
	closure := map[prov.Ref]bool{}
	for _, inst := range g.FindByAttr(prov.AttrName, "blast") {
		for _, out := range g.Children(inst) {
			if MatchRecords(g.Records(out), prov.AttrType, prov.TypeFile) {
				outputs[out] = true
				for _, d := range g.Descendants(out) {
					closure[d] = true
				}
			}
		}
	}
	// Q.3 excludes its seeds, the outputs themselves.
	for out := range outputs {
		delete(closure, out)
	}
	if len(closure) == 0 {
		t.Fatal("fixture has no descendants of blast's outputs")
	}
	asSet := func(refs []prov.Ref) map[prov.Ref]bool {
		set := make(map[prov.Ref]bool, len(refs))
		for _, r := range refs {
			set[r] = true
		}
		return set
	}
	if got := asSet(EvalQueryRefs(g, prov.QOutputsOf("blast"))); !reflect.DeepEqual(got, outputs) {
		t.Errorf("Q.2 = %v, graph walk finds %v", got, outputs)
	}
	if got := asSet(EvalQueryRefs(g, prov.QDescendantsOfOutputs("blast"))); !reflect.DeepEqual(got, closure) {
		t.Errorf("Q.3 = %v, graph walk finds %v", got, closure)
	}
}

// TestCollectRecordsMergesAndCopies: pieces of one subject merge into one
// record set, and the result never aliases the stream's (possibly shared
// snapshot) record slices.
func TestCollectRecordsMergesAndCopies(t *testing.T) {
	g := evalGraph()
	out1 := evalRef("/out1", 0)
	recs := g.Records(out1)
	seq := func(yield func(Entry, error) bool) {
		for _, r := range recs {
			if !yield(Entry{Ref: out1, Records: []prov.Record{r}}, nil) {
				return
			}
		}
		yield(Entry{Ref: evalRef("/x", 0), Records: g.Records(evalRef("/x", 0))}, nil)
	}
	m, err := CollectRecords(seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || !reflect.DeepEqual(m[out1], recs) {
		t.Fatalf("merged = %v, want %d subjects with /out1 = %v", m, 2, recs)
	}
	for ref, records := range m {
		records[0].Attr = "mutated"
		if g.Records(ref)[0].Attr == "mutated" {
			t.Fatalf("CollectRecords aliases the stream's records for %v", ref)
		}
	}
}
