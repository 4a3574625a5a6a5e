// Command datagen emits the synthetic datasets used by the experiments as
// CSV, so they can be inspected, re-used, or fed back through the
// comparenb CLI.
//
//	datagen -dataset enedis -rows 20000 -seed 1 > enedis.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"comparenb/internal/datagen"
)

func main() {
	var (
		which = flag.String("dataset", "tiny", "tiny | vaccine | enedis | flights")
		rows  = flag.Int("rows", 0, "row count (0 = dataset default; vaccine takes none)")
		seed  = flag.Int64("seed", 1, "RNG seed")
		truth = flag.Bool("truth", false, "print the planted ground truth to stderr")
	)
	flag.Parse()

	var (
		ds  *datagen.Dataset
		err error
	)
	switch *which {
	case "tiny":
		ds, err = datagen.Tiny(*seed, *rows)
	case "vaccine":
		if *rows != 0 {
			err = fmt.Errorf("-rows does not apply to vaccine, which always has Table 2's 5,045 rows")
			break
		}
		ds, err = datagen.VaccineLike(*seed)
	case "enedis":
		ds, err = datagen.ENEDISLike(*seed, *rows)
	case "flights":
		ds, err = datagen.FlightsLike(*seed, *rows)
	default:
		err = fmt.Errorf("unknown dataset %q", *which)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}

	w := bufio.NewWriter(os.Stdout)
	if err := ds.Rel.WriteCSV(w); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
	if *truth {
		fmt.Fprintf(os.Stderr, "# %d planted insights\n", len(ds.Planted))
		for _, p := range ds.Planted {
			fmt.Fprintf(os.Stderr, "%s: meas%d %s > %s (%v)\n",
				ds.Rel.CatName(p.Attr), p.Meas, p.Val, p.Val2, p.Type)
		}
	}
}
