// Themes: mining the Global Knowledge Graph.
//
// GDELT 2.0 annotates every article with themes, people, organizations and
// tone (Section III). This example exercises the GKG side of the system:
// it surfaces the dominant themes, tracks their quarterly trends, shows the
// theme co-occurrence structure, and measures the footprint of the
// machine-translated (non-English) feed.
//
// Run with:
//
//	go run ./examples/themes
package main

import (
	"fmt"
	"log"
)

import "gdeltmine"

func main() {
	log.SetFlags(0)
	corpus, err := gdeltmine.GenerateCorpus(gdeltmine.SmallCorpus())
	if err != nil {
		log.Fatal(err)
	}
	ds, err := gdeltmine.BuildDataset(corpus)
	if err != nil {
		log.Fatal(err)
	}
	if !ds.HasGKG() {
		log.Fatal("corpus has no GKG annotations")
	}

	top, err := ds.TopThemes(10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("dominant themes:")
	for i, tc := range top {
		fmt.Printf("  %2d. %-22s %7d articles\n", i+1, tc.Theme, tc.Articles)
	}

	trends, err := ds.ThemeTrends([]string{top[0].Theme, "TERROR"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nquarterly trend of %s vs TERROR (first/last 4 quarters):\n", top[0].Theme)
	n := len(trends[0].Values)
	for _, tr := range trends {
		fmt.Printf("  %-22s %v ... %v\n", tr.Theme, tr.Values[:4], tr.Values[n-4:])
	}

	co, err := ds.ThemeCooccurrences(6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntheme co-occurrence (Jaccard) among the top six:")
	for i, a := range co.Themes {
		for j, b := range co.Themes {
			if j <= i {
				continue
			}
			if v := co.Jaccard.At(i, j); v > 0.02 {
				fmt.Printf("  %-22s <-> %-22s %.3f\n", a, b, v)
			}
		}
	}

	labels, share, err := ds.TranslatedShare()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmachine-translated share of the feed (Section III's 65-language pipeline):")
	fmt.Printf("  %s: %.1f%%   %s: %.1f%%\n",
		labels[1], 100*share[1], labels[len(labels)-1], 100*share[len(share)-1])
}
