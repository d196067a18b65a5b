// Census: the paper's introductory scenario. "Data from the US Census
// databases are released on the cloud... Scientists who wish to analyze
// this data for trends can download the data set to their local compute
// grid, process it, and then upload the results back to the cloud, easily
// sharing their results with fellow researchers."
//
// Three research groups are three *separate clients* of one shared region,
// each with its own write-ahead-log queue (the paper's per-client WAL).
// Group C downloads both groups' shared results, derives from them, and the
// combined provenance — spanning all three clients — answers "where did
// this come from?" for anyone.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"passcloud"
)

// ctx scopes every cloud call the example makes; a real service would
// derive per-request contexts with deadlines here.
var ctx = context.Background()

func main() {
	region, err := passcloud.NewRegion(passcloud.Options{
		Architecture: passcloud.S3SimpleDBSQS,
		Seed:         2000,
	})
	if err != nil {
		log.Fatal(err)
	}

	bureau, err := region.NewClient("census-bureau")
	must(err)
	groupA, err := region.NewClient("group-a")
	must(err)
	groupB, err := region.NewClient("group-b")
	must(err)
	groupC, err := region.NewClient("group-c")
	must(err)

	// The Census Bureau releases the data set on the cloud.
	release := "/public/census/us-census-2000.dat"
	must(bureau.Ingest(ctx, release, []byte(strings.Repeat("county,population,income\n", 200))))
	must(bureau.Sync(ctx))
	region.Settle()

	// Group A downloads the release and derives migration trends.
	_, err = groupA.Fetch(ctx, release)
	must(err)
	trendTool := groupA.Exec(nil, passcloud.ProcessSpec{
		Name: "trend-analyzer",
		Argv: []string{"trend-analyzer", "--metric=migration", release},
		Env:  "LAB=harvard GRID=odyssey",
	})
	must(trendTool.Read(release))
	must(trendTool.Write("/shared/groupA/migration-trends.dat", []byte("northeast,-0.8\nsouthwest,+2.1\n")))
	must(trendTool.Close(ctx, "/shared/groupA/migration-trends.dat"))
	trendTool.Exit()
	must(groupA.Sync(ctx))

	// Group B independently models income from the same release.
	_, err = groupB.Fetch(ctx, release)
	must(err)
	incomeTool := groupB.Exec(nil, passcloud.ProcessSpec{
		Name: "income-model",
		Argv: []string{"income-model", "--quantiles=10", release},
		Env:  "LAB=berkeley GRID=millennium",
	})
	must(incomeTool.Read(release))
	must(incomeTool.Write("/shared/groupB/income-deciles.dat", []byte("d1,8k\nd10,142k\n")))
	must(incomeTool.Close(ctx, "/shared/groupB/income-deciles.dat"))
	incomeTool.Exit()
	must(groupB.Sync(ctx))
	region.Settle()

	// Group C downloads both shared results and combines them.
	_, err = groupC.Fetch(ctx, "/shared/groupA/migration-trends.dat")
	must(err)
	_, err = groupC.Fetch(ctx, "/shared/groupB/income-deciles.dat")
	must(err)
	correlate := groupC.Exec(nil, passcloud.ProcessSpec{
		Name: "correlate",
		Argv: []string{"correlate", "/shared/groupA/migration-trends.dat", "/shared/groupB/income-deciles.dat"},
	})
	must(correlate.Read("/shared/groupA/migration-trends.dat"))
	must(correlate.Read("/shared/groupB/income-deciles.dat"))
	must(correlate.Write("/shared/groupC/migration-vs-income.dat", []byte("r=0.63\n")))
	must(correlate.Close(ctx, "/shared/groupC/migration-vs-income.dat"))
	correlate.Exit()
	must(groupC.Sync(ctx))
	region.Settle()

	// A fourth researcher — any client — finds group C's result and asks:
	// what is this derived from, and how exactly?
	obj, err := bureau.Get(ctx, "/shared/groupC/migration-vs-income.dat")
	must(err)
	fmt.Printf("found shared result %s (%q)\n\n", obj.Ref, obj.Data)

	// The v2 query API answers "where did this come from?" with one
	// composable descriptor: walk input edges from the result, records
	// included — no per-ancestor follow-up calls.
	ancestry, err := bureau.Search(ctx, passcloud.QuerySpec{
		Refs:      []passcloud.Ref{obj.Ref},
		Direction: passcloud.TraverseAncestors,
	})
	must(err)
	fmt.Println("complete cross-client ancestry:")
	var ancestors []passcloud.Ref
	for _, e := range ancestry.Entries {
		ancestors = append(ancestors, e.Ref)
		detail := ""
		for _, r := range e.Records {
			if r.Attr == "argv" {
				detail = " — " + r.Value
			}
		}
		fmt.Printf("  %s%s\n", e.Ref, detail)
	}

	// The same surface answers parameterized questions the paper's three
	// fixed queries never could: which tool processes ran on the Odyssey grid?
	odyssey, err := bureau.Search(ctx, passcloud.QuerySpec{
		Attrs:     map[string]string{"env": "LAB=harvard GRID=odyssey"},
		RefPrefix: "proc/",
		RefsOnly:  true,
	})
	must(err)
	fmt.Printf("\ntools run on the Odyssey grid: %d\n", len(odyssey.Entries))

	// The ancestry must reach the census release itself.
	for _, a := range ancestors {
		if a.Object == release {
			fmt.Printf("\nverified: the result derives from %s\n", release)
			// And the bureau cannot delete data the community built on:
			if err := bureau.SafeDelete(ctx, release); err != nil {
				fmt.Printf("SafeDelete correctly refused: %v\n", err)
			}
			return
		}
	}
	log.Fatal("ancestry did not reach the census release")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
