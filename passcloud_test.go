package passcloud

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// ctx is the shared background context for test cloud calls.
var ctx = context.Background()

// allArchitectures enumerates the paper's three designs for cross-cutting
// tests.
var allArchitectures = []Architecture{S3Only, S3SimpleDB, S3SimpleDBSQS}

// runPipeline drives the canonical scenario from the paper's introduction:
// a downloaded data set, an analysis tool, a derived result, and a second
// stage deriving from the first.
func runPipeline(t *testing.T, c *Client) {
	t.Helper()
	if err := c.Ingest(ctx, "/census/data.csv", []byte("census-2000-data")); err != nil {
		t.Fatal(err)
	}
	analyze := c.Exec(nil, ProcessSpec{Name: "analyze", Argv: []string{"analyze", "--trend"}})
	if err := analyze.Read("/census/data.csv"); err != nil {
		t.Fatal(err)
	}
	if err := analyze.Write("/results/trends.dat", []byte("trend-results")); err != nil {
		t.Fatal(err)
	}
	if err := analyze.Close(ctx, "/results/trends.dat"); err != nil {
		t.Fatal(err)
	}
	analyze.Exit()

	plot := c.Exec(nil, ProcessSpec{Name: "plot"})
	if err := plot.Read("/results/trends.dat"); err != nil {
		t.Fatal(err)
	}
	if err := plot.Write("/results/trends.png", []byte("png-bytes")); err != nil {
		t.Fatal(err)
	}
	if err := plot.Close(ctx, "/results/trends.png"); err != nil {
		t.Fatal(err)
	}
	plot.Exit()

	if err := c.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	c.Settle()
}

func TestPipelineAllArchitectures(t *testing.T) {
	for _, arch := range allArchitectures {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			c, err := New(Options{Architecture: arch, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			runPipeline(t, c)

			obj, err := c.Get(ctx, "/results/trends.dat")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(obj.Data, []byte("trend-results")) {
				t.Fatalf("data = %q", obj.Data)
			}
			// The result's provenance leads to the analyze process.
			var inputs []Ref
			for _, r := range obj.Records {
				if r.IsInput {
					inputs = append(inputs, r.InputRef)
				}
			}
			if len(inputs) != 1 || inputs[0].Object != "proc/1/analyze" {
				t.Fatalf("inputs = %v", inputs)
			}

			// Q.2: outputs of analyze.
			outputs, err := searchRefs(ctx, c, outputsSpec("analyze"))
			if err != nil {
				t.Fatal(err)
			}
			if len(outputs) != 1 || outputs[0].Object != "/results/trends.dat" {
				t.Fatalf("OutputsOf = %v", outputs)
			}

			// Q.3: everything derived from analyze's outputs.
			desc, err := searchRefs(ctx, c, descendantsSpec("analyze"))
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, d := range desc {
				if d.Object == "/results/trends.png" {
					found = true
				}
			}
			if !found {
				t.Fatalf("descendants %v missing the plot", desc)
			}

			// Full ancestry of the plot reaches the census data.
			png, err := c.Get(ctx, "/results/trends.png")
			if err != nil {
				t.Fatal(err)
			}
			anc, err := searchRefs(ctx, c, ancestorsSpec(png.Ref))
			if err != nil {
				t.Fatal(err)
			}
			reachedCensus := false
			for _, a := range anc {
				if a.Object == "/census/data.csv" {
					reachedCensus = true
				}
			}
			if !reachedCensus {
				t.Fatalf("ancestry %v does not reach the source data", anc)
			}
		})
	}
}

func TestArchitecturesAgreeOnAnswers(t *testing.T) {
	type answers struct {
		outputs  []Ref
		desc     []Ref
		subjects int
	}
	var got []answers
	for _, arch := range allArchitectures {
		c, err := New(Options{Architecture: arch, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		runPipeline(t, c)
		outputs, err := searchRefs(ctx, c, outputsSpec("analyze"))
		if err != nil {
			t.Fatal(err)
		}
		desc, err := searchRefs(ctx, c, descendantsSpec("analyze"))
		if err != nil {
			t.Fatal(err)
		}
		all, err := c.Search(ctx, QuerySpec{})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, answers{outputs: outputs, desc: desc, subjects: len(all.Entries)})
	}
	for i := 1; i < len(got); i++ {
		if !reflect.DeepEqual(got[i].outputs, got[0].outputs) {
			t.Errorf("outputs differ between architectures: %v vs %v", got[i].outputs, got[0].outputs)
		}
		if len(got[i].desc) != len(got[0].desc) {
			t.Errorf("descendant counts differ: %d vs %d", len(got[i].desc), len(got[0].desc))
		}
		if got[i].subjects != got[0].subjects {
			t.Errorf("subject counts differ: %d vs %d", got[i].subjects, got[0].subjects)
		}
	}
}

func TestPropertiesMatchTable1(t *testing.T) {
	want := map[Architecture]Properties{
		S3Only:        {Atomicity: true, Consistency: true, CausalOrdering: true, EfficientQuery: false},
		S3SimpleDB:    {Atomicity: false, Consistency: true, CausalOrdering: true, EfficientQuery: true},
		S3SimpleDBSQS: {Atomicity: true, Consistency: true, CausalOrdering: true, EfficientQuery: true},
	}
	for arch, w := range want {
		c, err := New(Options{Architecture: arch})
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Properties(); got != w {
			t.Errorf("%v properties = %+v, want %+v", arch, got, w)
		}
	}
}

func TestEventualConsistencyVisibleThroughAPI(t *testing.T) {
	c, err := New(Options{
		Architecture:     S3Only,
		Seed:             3,
		ConsistencyDelay: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest(ctx, "/d", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Without settling, some reads may miss the fresh object.
	missed := false
	for i := 0; i < 100; i++ {
		if _, err := c.Get(ctx, "/d"); errors.Is(err, ErrNotFound) {
			missed = true
			break
		}
	}
	if !missed {
		t.Log("no stale read observed (possible but unlikely); continuing")
	}
	c.Settle()
	if _, err := c.Get(ctx, "/d"); err != nil {
		t.Fatalf("after Settle: %v", err)
	}
}

func TestUsageAccounting(t *testing.T) {
	c, err := New(Options{Architecture: S3SimpleDBSQS, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	runPipeline(t, c)
	u := c.Usage()
	if u.S3Ops == 0 || u.SimpleDBOps == 0 || u.SQSOps == 0 {
		t.Fatalf("usage incomplete: %+v", u)
	}
	if u.S3Stored == 0 || u.TransferredIn == 0 {
		t.Fatalf("storage/transfer accounting missing: %+v", u)
	}
	if u.USD <= 0 {
		t.Fatalf("USD = %v", u.USD)
	}
}

func TestProvenanceByVersion(t *testing.T) {
	c, err := New(Options{Architecture: S3SimpleDB, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	w := c.Exec(nil, ProcessSpec{Name: "writer"})
	for v := 0; v < 3; v++ {
		if err := w.Write("/f", []byte(fmt.Sprintf("v%d", v))); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(ctx, "/f"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	// Every version's provenance is retrievable.
	for v := 0; v < 3; v++ {
		records, err := c.Provenance(ctx, Ref{Object: "/f", Version: v})
		if err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
		if len(records) == 0 {
			t.Fatalf("version %d has no records", v)
		}
	}
	if _, err := c.Provenance(ctx, Ref{Object: "/f", Version: 9}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing version: %v", err)
	}
}

func TestAppendAndPipe(t *testing.T) {
	c, err := New(Options{Architecture: S3SimpleDBSQS, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	gen := c.Exec(nil, ProcessSpec{Name: "gen"})
	sink := c.Exec(nil, ProcessSpec{Name: "sink"})
	if err := gen.PipeTo(sink); err != nil {
		t.Fatal(err)
	}
	if err := sink.Append("/log", []byte("line1\n")); err != nil {
		t.Fatal(err)
	}
	if err := sink.Append("/log", []byte("line2\n")); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(ctx, "/log"); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	obj, err := c.Get(ctx, "/log")
	if err != nil || string(obj.Data) != "line1\nline2\n" {
		t.Fatalf("log = %v, %v", obj, err)
	}
	// The log's ancestry includes gen, through the pipe.
	anc, err := searchRefs(ctx, c, ancestorsSpec(obj.Ref))
	if err != nil {
		t.Fatal(err)
	}
	foundGen := false
	for _, a := range anc {
		if a.Object == "proc/1/gen" {
			foundGen = true
		}
	}
	if !foundGen {
		t.Fatalf("ancestors %v missing pipe source", anc)
	}
}

func TestUnknownArchitecture(t *testing.T) {
	if _, err := New(Options{Architecture: Architecture(99)}); err == nil {
		t.Fatal("unknown architecture accepted")
	}
	if Architecture(99).String() == "" {
		t.Fatal("empty name for unknown architecture")
	}
}

func TestDeterminism(t *testing.T) {
	usage := func() UsageSummary {
		c, err := New(Options{Architecture: S3SimpleDBSQS, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		runPipeline(t, c)
		return c.Usage()
	}
	a, b := usage(), usage()
	if a != b {
		t.Fatalf("same seed produced different usage:\n%+v\n%+v", a, b)
	}
}

// TestQueryCacheThroughPublicAPI: repeated queries on an unchanged
// repository cost zero cloud ops on every architecture; a write in between
// invalidates; DisableQueryCache restores pay-per-query.
func TestQueryCacheThroughPublicAPI(t *testing.T) {
	for _, arch := range allArchitectures {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			c, err := New(Options{Architecture: arch, Seed: 21})
			if err != nil {
				t.Fatal(err)
			}
			runPipeline(t, c)

			// Cold round, then the repeat round must be free.
			queries := func() (int, int) {
				outputs, err := searchRefs(ctx, c, outputsSpec("analyze"))
				if err != nil {
					t.Fatal(err)
				}
				desc, err := searchRefs(ctx, c, descendantsSpec("analyze"))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.Search(ctx, QuerySpec{}); err != nil {
					t.Fatal(err)
				}
				if _, err := searchRefs(ctx, c, ancestorsSpec(Ref{Object: "/results/trends.png", Version: 0})); err != nil {
					t.Fatal(err)
				}
				return len(outputs), len(desc)
			}
			outputs, desc := queries()
			if outputs != 1 || desc < 1 {
				t.Fatalf("cold queries: outputs = %d, descendants = %d", outputs, desc)
			}
			before := c.Usage()
			queries()
			after := c.Usage()
			if ops := (after.S3Ops + after.SimpleDBOps) - (before.S3Ops + before.SimpleDBOps); ops != 0 {
				t.Fatalf("repeat query round cost %d cloud ops, want 0", ops)
			}

			// A new derivation invalidates: the next query sees it.
			extra := c.Exec(nil, ProcessSpec{Name: "analyze", Argv: []string{"analyze", "--again"}})
			if err := extra.Read("/census/data.csv"); err != nil {
				t.Fatal(err)
			}
			if err := extra.Write("/results/extra.dat", []byte("more")); err != nil {
				t.Fatal(err)
			}
			if err := extra.Close(ctx, "/results/extra.dat"); err != nil {
				t.Fatal(err)
			}
			extra.Exit()
			if err := c.Sync(ctx); err != nil {
				t.Fatal(err)
			}
			c.Settle()
			got, err := searchRefs(ctx, c, outputsSpec("analyze"))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 2 {
				t.Fatalf("OutputsOf after new write = %d, want 2 (stale cache)", len(got))
			}
		})
	}
}

func TestDisableQueryCacheRestoresPaperCosts(t *testing.T) {
	c, err := New(Options{Architecture: S3Only, Seed: 22, DisableQueryCache: true})
	if err != nil {
		t.Fatal(err)
	}
	runPipeline(t, c)
	if _, err := searchRefs(ctx, c, outputsSpec("analyze")); err != nil {
		t.Fatal(err)
	}
	before := c.Usage().S3Ops
	if _, err := searchRefs(ctx, c, outputsSpec("analyze")); err != nil {
		t.Fatal(err)
	}
	if ops := c.Usage().S3Ops - before; ops == 0 {
		t.Fatal("uncached repeat query cost 0 ops; knob did not disable the cache")
	}
}
