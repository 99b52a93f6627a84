// Command ihtlbench regenerates the paper's evaluation tables and
// figures on the synthetic dataset registry.
//
// Usage:
//
//	ihtlbench -exp fig7                 # one experiment, full registry
//	ihtlbench -exp all -small           # everything, small datasets
//	ihtlbench -exp table5 -datasets sk,uu
//	ihtlbench -list                     # show experiments and datasets
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ihtl/internal/bench"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (fig1|fig2|fig7|table2|table3|table4|fig8|table5|table6|fig9|all)")
		datasets = flag.String("datasets", "", "comma-separated dataset names (default: all in registry)")
		small    = flag.Bool("small", false, "use the reduced-size registry")
		workers  = flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
		iters    = flag.Int("iters", 8, "timed iterations per measurement")
		list     = flag.Bool("list", false, "list experiments and datasets, then exit")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	)
	flag.Parse()

	reg := bench.Registry()
	if *small {
		reg = bench.SmallRegistry()
	}
	if *list {
		fmt.Println("experiments:", strings.Join(bench.Experiments(), " "), "all")
		fmt.Println("datasets:")
		for _, d := range reg {
			fmt.Printf("  %-10s %-7s analog of %s\n", d.Name, d.Kind, d.Analog)
		}
		return
	}

	selected := reg
	if *datasets != "" {
		selected = nil
		for _, name := range strings.Split(*datasets, ",") {
			d, err := bench.ByName(reg, strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			selected = append(selected, d)
		}
	}

	env := bench.NewEnv(*workers)
	defer env.Close()
	env.Iters = *iters
	env.Out = os.Stdout
	env.CSV = *csv

	var err error
	if *exp == "all" {
		err = bench.RunAll(env, selected)
	} else {
		err = bench.Run(env, *exp, selected)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ihtlbench:", err)
	os.Exit(1)
}
