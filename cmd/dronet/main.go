// Command dronet runs the paper's offline pipeline, one stage per
// subcommand: arch, data, train, detect, platform and sweep. `dronet` alone
// lists them; `dronet <command> -h` lists a command's flags. Serving is
// separate: cmd/dronet-serve and cmd/dronet-proxy.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/platform"
	"repro/internal/tensor"
)

// A command is one subcommand. setup defines its flags on fs and returns
// its body, which runs once the flags are parsed and writes its report to w.
type command struct {
	name, summary string
	setup         func(fs *flag.FlagSet) func(w io.Writer) error
}

var commands = []command{
	{"arch", "layers, workload and parameters of the four models (Fig. 1/2)", archCmd},
	{"data", "generate the synthetic aerial vehicle dataset", dataCmd},
	{"train", "train a model and write its weights", trainCmd},
	{"detect", "run a trained detector over PNGs, write annotated copies", detectCmd},
	{"platform", "predicted FPS on the paper's three platforms (§IV)", platformCmd},
	{"sweep", "the parameter-space exploration of Fig. 3 and Fig. 4", sweepCmd},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches args to a subcommand and returns the exit code: 0 on
// success or -h, 1 when the subcommand fails, 2 on a flag error or a
// missing or unknown subcommand.
func run(args []string, stdout, stderr io.Writer) int {
	for _, c := range commands {
		if len(args) == 0 || args[0] != c.name {
			continue
		}
		fs := flag.NewFlagSet("dronet "+c.name, flag.ContinueOnError)
		fs.SetOutput(stderr)
		body := c.setup(fs)
		if err := fs.Parse(args[1:]); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return 0
			}
			return 2
		}
		if err := body(stdout); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", fs.Name(), err)
			return 1
		}
		return 0
	}
	fmt.Fprint(stderr, "usage: dronet <command> [flags]\n\ncommands:\n")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-9s %s\n", c.name, c.summary)
	}
	return 2
}

// eachModel builds the named model, or all four when name is empty, at the
// given input size and hands each to fn in turn.
func eachModel(name string, size int, fn func(*network.Network) error) error {
	names := models.Names()
	if name != "" {
		names = []string{name}
	}
	rng := tensor.NewRNG(1)
	for _, n := range names {
		net, _, err := models.Build(n, size, rng)
		if err != nil {
			return err
		}
		if err := fn(net); err != nil {
			return err
		}
	}
	return nil
}

// archCmd prints the layer structure of the paper's four CNN architectures
// — the information in Fig. 1 (baselines) and Fig. 2 (DroNet) — together
// with per-layer and total workload (FLOPs) and parameter counts.
//
// Usage:
//
//	dronet arch                # all four models at their Fig. 1 size
//	dronet arch -model dronet -size 512
func archCmd(fs *flag.FlagSet) func(io.Writer) error {
	model := fs.String("model", "", "model to print (default: all four)")
	size := fs.Int("size", 416, "input resolution")
	return func(w io.Writer) error {
		return eachModel(*model, *size, func(net *network.Network) error {
			fmt.Fprintln(w, net.Summary())
			return nil
		})
	}
}

// platformCmd regenerates the paper's platform results (§IV.B and the
// §IV.A speedup claims): predicted FPS for every model on the Intel
// i5-2520M, Odroid-XU4 and Raspberry Pi 3 platform models, the published
// speedup ratios, and an optional per-layer cost breakdown.
//
// Usage:
//
//	dronet platform                    # full model × platform FPS table @512
//	dronet platform -size 386          # the paper's §IV.A comparison point
//	dronet platform -platform odroid -model dronet -breakdown
func platformCmd(fs *flag.FlagSet) func(io.Writer) error {
	size := fs.Int("size", 512, "input resolution")
	platName := fs.String("platform", "", "restrict to one platform (i5, odroid, rpi3)")
	model := fs.String("model", "", "restrict to one model")
	breakdown := fs.Bool("breakdown", false, "print the per-layer cost table")
	return func(w io.Writer) error {
		plats := platform.All()
		if *platName != "" {
			p, err := platform.ByName(*platName)
			if err != nil {
				return err
			}
			plats = []platform.Platform{p}
		}

		fmt.Fprintf(w, "Predicted FPS at input %dx%d (calibrated roofline model)\n\n", *size, *size)
		fmt.Fprintf(w, "%-14s", "model")
		for _, p := range plats {
			fmt.Fprintf(w, " %28s", p.Name)
		}
		fmt.Fprintln(w)
		fps := map[string]map[string]float64{}
		var tables []string
		err := eachModel(*model, *size, func(net *network.Network) error {
			fmt.Fprintf(w, "%-14s", net.Name)
			fps[net.Name] = map[string]float64{}
			for _, p := range plats {
				pred := p.Predict(net)
				fps[net.Name][p.Name] = pred.FPS
				fmt.Fprintf(w, " %28.2f", pred.FPS)
				tables = append(tables, pred.String())
			}
			fmt.Fprintln(w)
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(w)

		// Paper anchor ratios, printed when every model is in the table.
		if *model == "" {
			for _, p := range plats {
				voc := fps[models.TinyYoloVoc][p.Name]
				if voc <= 0 {
					continue
				}
				fmt.Fprintf(w, "%s: DroNet %.0fx, TinyYoloNet %.0fx, SmallYoloV3 %.0fx faster than TinyYoloVoc\n",
					p.Name,
					fps[models.DroNet][p.Name]/voc,
					fps[models.TinyYoloNet][p.Name]/voc,
					fps[models.SmallYoloV3][p.Name]/voc)
			}
		}
		// The per-layer tables follow, in table order.
		if *breakdown {
			for _, t := range tables {
				fmt.Fprintln(w, t)
			}
		}
		return nil
	}
}
