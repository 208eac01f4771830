// Command nomad-datagen writes a synthetic rating matrix, shaped like
// one of the paper's Table 2 datasets, to a text file usable by
// nomad-train -input.
//
// Usage:
//
//	nomad-datagen -profile yahoo -scale 0.001 -out yahoo.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"nomad"
)

func main() {
	var (
		profile = flag.String("profile", "netflix", "profile: netflix, yahoo, hugewiki, longtail")
		scale   = flag.Float64("scale", 0.002, "scale (fraction of the original dataset)")
		seed    = flag.Uint64("seed", 42, "random seed")
		out     = flag.String("out", "", "output file (default stdout)")
	)
	flag.Parse()

	ds, err := nomad.Synthesize(*profile, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = f
	}
	if err := ds.WriteTrainMatrix(w); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%s: %d users × %d items, %d ratings written\n",
		*profile, ds.Users(), ds.Items(), ds.TrainSize())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nomad-datagen:", err)
	os.Exit(1)
}
