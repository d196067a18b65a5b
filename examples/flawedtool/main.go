// Flawedtool: the paper's motivating query. "Imagine that a researcher
// discovers that a particular version of a widely-used analysis tool is
// flawed. She can identify all data sets affected by the flawed software by
// querying the provenance."
//
// Several datasets are processed by aligner v1.0 and v1.1; later, v1.0
// turns out to be flawed. The provenance pins down exactly which stored
// datasets — including downstream derivations — are tainted, and which are
// safe.
package main

import (
	"context"
	"fmt"
	"log"

	"passcloud"
)

// ctx scopes every cloud call the example makes; a real service would
// derive per-request contexts with deadlines here.
var ctx = context.Background()

func main() {
	client, err := passcloud.New(passcloud.Options{
		Architecture: passcloud.S3SimpleDB, // indexed queries; atomicity not needed here
		Seed:         7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Six input samples; half processed with each aligner version.
	for i := 0; i < 6; i++ {
		sample := fmt.Sprintf("/samples/sample%02d.fastq", i)
		must(client.Ingest(ctx, sample, []byte(fmt.Sprintf("reads-for-sample-%02d", i))))

		version := "1.0"
		tool := "aligner-v1.0"
		if i >= 3 {
			version = "1.1"
			tool = "aligner-v1.1"
		}
		align := client.Exec(nil, passcloud.ProcessSpec{
			Name: tool,
			Argv: []string{"aligner", "--version=" + version, sample},
		})
		must(align.Read(sample))
		out := fmt.Sprintf("/aligned/sample%02d.bam", i)
		must(align.Write(out, []byte("aligned-"+version)))
		must(align.Close(ctx, out))
		align.Exit()
	}

	// A downstream merge consumes one tainted and one clean alignment.
	merge := client.Exec(nil, passcloud.ProcessSpec{
		Name: "merge",
		Argv: []string{"merge", "/aligned/sample00.bam", "/aligned/sample05.bam"},
	})
	must(merge.Read("/aligned/sample00.bam"))
	must(merge.Read("/aligned/sample05.bam"))
	must(merge.Write("/merged/cohort.bam", []byte("merged")))
	must(merge.Close(ctx, "/merged/cohort.bam"))
	merge.Exit()

	must(client.Sync(ctx))
	client.Settle()

	// The discovery: aligner v1.0 is flawed. One indexed query finds its
	// direct outputs...
	direct := outputs(ctx, client, "aligner-v1.0", passcloud.TraverseNone)
	fmt.Println("datasets produced directly by the flawed aligner v1.0:")
	for _, ref := range direct {
		fmt.Printf("  %s\n", ref)
	}

	// ...and the descendant closure finds everything contaminated
	// downstream (the merge result included).
	tainted := outputs(ctx, client, "aligner-v1.0", passcloud.TraverseDescendants)
	fmt.Println("\neverything derived from those outputs (also suspect):")
	for _, ref := range tainted {
		fmt.Printf("  %s\n", ref)
	}

	// Sanity: the clean aligner's exclusive outputs are not implicated.
	clean := outputs(ctx, client, "aligner-v1.1", passcloud.TraverseNone)
	taintedSet := map[string]bool{}
	for _, rfs := range [][]passcloud.Ref{direct, tainted} {
		for _, r := range rfs {
			taintedSet[r.Object] = true
		}
	}
	fmt.Println("\nclean v1.1 outputs unaffected:")
	for _, ref := range clean {
		if ref.Object != "/aligned/sample05.bam" && taintedSet[ref.Object] {
			log.Fatalf("clean output %s wrongly implicated", ref)
		}
		fmt.Printf("  %s\n", ref)
	}
}

// outputs finds the files written by instances of tool (the paper's Q.2)
// or, traversing descendants, everything derived from them (Q.3).
func outputs(ctx context.Context, client *passcloud.Client, tool string, dir passcloud.TraversalDirection) []passcloud.Ref {
	res, err := client.Search(ctx, passcloud.QuerySpec{Tool: tool, Type: "file", Direction: dir, RefsOnly: true})
	if err != nil {
		log.Fatal(err)
	}
	return res.Refs()
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
