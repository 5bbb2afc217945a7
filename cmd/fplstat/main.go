// Command fplstat compiles the stock circuit library onto the ProteanARM's
// 500-CLB PFU fabric and reports synthesis statistics: LUT/FF counts
// before and after optimisation, placement utilisation, wirelength, the
// size of the two configuration sections (§4.1's full image vs state
// frames) and the compiled program's work: the LUTs the configuration
// evaluates per cycle (pfu-luts), then, as ops/LUTs (an op evaluates one
// or two mapped LUTs over one pin set), the per-cycle schedules Step runs
// when init is high (init=1) and low (init=0), and the whole-instruction
// burst with its length in cycles (burst (K); "-" when the circuit has
// none).
//
// With -lint the tool additionally runs the fabric netlist linter
// (fabric.Lint and fabric.LintConfig) over every optimised circuit and
// its placed configuration, prints any findings, and exits nonzero if a
// circuit is not clean. CI runs fplstat -lint to keep the stock library
// free of dead logic, constant LUTs, unused flip-flops, floating inputs
// and combinational cycles.
//
// With -equiv the tool runs the formal equivalence checker (fabric.Equiv)
// over the whole flow for every circuit: the optimiser runs in its
// self-checking mode, the encoded-then-decoded configuration is proved
// equivalent to the optimised netlist, and the compiled program is
// verified against the configuration it was lowered from. Any unproven
// circuit exits nonzero; CI runs fplstat -equiv so the stock library
// ships with proofs, not samples.
//
// With -sta the tool prints each circuit's static timing report
// (fabric.Timing): critical-path depth in LUT levels, the level
// histogram and the critical endpoint with its explicit CLB path. A
// circuit whose configuration cannot be timed exits nonzero.
package main

import (
	"flag"
	"fmt"
	"os"

	"protean/internal/fabric"
)

func main() {
	w := flag.Int("w", fabric.DefaultPFUSpec.W, "array width in CLBs")
	h := flag.Int("h", fabric.DefaultPFUSpec.H, "array height in CLBs")
	lint := flag.Bool("lint", false, "lint every circuit and placed configuration; exit nonzero on findings")
	equiv := flag.Bool("equiv", false, "prove optimiser, encoder and compiler preserve every circuit; exit nonzero on unproven")
	sta := flag.Bool("sta", false, "print static timing reports for every placed configuration")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "fplstat: unexpected argument %q (the tool takes flags only)\n", flag.Arg(0))
		os.Exit(2)
	}
	spec := fabric.ArraySpec{W: *w, H: *h}

	circuits := []struct {
		name string
		mk   func() *fabric.Netlist
	}{
		{"pass32", fabric.Passthrough32},
		{"xor32", fabric.Xor32},
		{"add32", fabric.Adder32},
		{"popcount32", fabric.Popcount32},
		{"crc32step", fabric.CRC32Step},
		{"satadd16", fabric.SatAdd16},
		{"seqmul16", fabric.SeqMul16},
		{"alphablend", fabric.AlphaBlend},
		{"barrel32", fabric.BarrelShift32},
		{"lfsr32", fabric.LFSR32},
	}

	fmt.Printf("PFU fabric: %dx%d = %d CLBs; static image %d bytes, state frames %d bytes\n\n",
		spec.W, spec.H, spec.CLBs(), fabric.StaticBytes(spec), fabric.StateBytes(spec))
	fmt.Printf("%-12s %8s %8s %8s %6s %6s %7s %10s %6s %8s %8s %8s %14s\n",
		"circuit", "luts", "luts-opt", "ffs", "depth", "cells", "util%", "wirelength", "maxw",
		"pfu-luts", "init=1", "init=0", "burst (K)")
	findings := 0
	for _, c := range circuits {
		n := c.mk()
		before := n.Stats()
		if *equiv {
			_, rep, err := fabric.OptimizeChecked(n)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fplstat: %s: optimise proof: %v\n", c.name, err)
				os.Exit(1)
			}
			if !rep.Equivalent {
				fmt.Fprintf(os.Stderr, "fplstat: %s: optimise proof failed: %s\n", c.name, rep)
				os.Exit(1)
			}
		} else {
			fabric.Optimize(n)
		}
		after := n.Stats()
		cfg, stats, err := fabric.Place(n, spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fplstat: %s: %v\n", c.name, err)
			os.Exit(1)
		}
		bits, err := fabric.EncodeStatic(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fplstat: %s: %v\n", c.name, err)
			os.Exit(1)
		}
		if _, err := fabric.NewPFU(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "fplstat: %s failed validation: %v\n", c.name, err)
			os.Exit(1)
		}
		prog, err := fabric.Compile(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fplstat: %s: compile: %v\n", c.name, err)
			os.Exit(1)
		}
		luts, byInit, burst := prog.Ops()
		work := func(n fabric.OpCount) string { return fmt.Sprintf("%d/%d", n.Ops, n.LUTs) }
		burstCol := "-"
		if k := prog.BurstCycles(); k > 0 {
			burstCol = fmt.Sprintf("%s (%d)", work(burst), k)
		}
		fmt.Printf("%-12s %8d %8d %8d %6d %6d %6.1f%% %10d %6d %8d %8s %8s %14s\n",
			c.name, before.LUTs, after.LUTs, after.FFs, after.Depth,
			stats.Cells, stats.Utilization*100, stats.Wirelength, stats.MaxWire,
			luts, work(byInit[1]), work(byInit[0]), burstCol)
		if *lint {
			findings += lintCircuit(c.name, n, cfg)
		}
		if *equiv {
			proveCircuit(c.name, n, bits)
		}
		if *sta {
			staCircuit(c.name, cfg)
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "fplstat: lint found %d issue(s)\n", findings)
		os.Exit(1)
	}
}

// lintCircuit lints one optimised netlist and its placed configuration,
// printing every finding, and returns the finding count.
func lintCircuit(name string, n *fabric.Netlist, cfg *fabric.ArrayConfig) int {
	found := 0
	r, err := fabric.Lint(n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fplstat: lint %s: %v\n", name, err)
		os.Exit(1)
	}
	for _, d := range r.Diags {
		fmt.Fprintf(os.Stderr, "fplstat: %s: netlist: %s: %s\n", name, d.Kind, d.Msg)
		found++
	}
	rc, err := fabric.LintConfig(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fplstat: lint %s: %v\n", name, err)
		os.Exit(1)
	}
	for _, d := range rc.Diags {
		fmt.Fprintf(os.Stderr, "fplstat: %s: config: %s: %s\n", name, d.Kind, d.Msg)
		found++
	}
	return found
}

// proveCircuit proves the rest of the flow for one optimised netlist:
// the encoded-then-decoded configuration implements the netlist, and
// the compiled program implements the configuration. The optimiser's
// own proof ran in OptimizeChecked, so together the chain covers source
// netlist -> optimised netlist -> bitstream -> compiled program. Exits
// nonzero on any unproven step.
func proveCircuit(name string, n *fabric.Netlist, bits []byte) {
	cfg, err := fabric.Decode(bits)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fplstat: %s: decode: %v\n", name, err)
		os.Exit(1)
	}
	rep, err := fabric.EquivConfig(cfg, n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fplstat: %s: config proof: %v\n", name, err)
		os.Exit(1)
	}
	if !rep.Equivalent {
		fmt.Fprintf(os.Stderr, "fplstat: %s: decoded configuration differs from netlist: %s\n", name, rep)
		os.Exit(1)
	}
	prog, err := fabric.Compile(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fplstat: %s: compile: %v\n", name, err)
		os.Exit(1)
	}
	if err := prog.Verify(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "fplstat: %s: compiled program: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Printf("  equiv %s: proved (%d outputs, %d registers, %d rounds, %d nodes)\n",
		name, rep.Outputs, rep.Registers, rep.Rounds, rep.Nodes)
}

// staCircuit prints the static timing report for one placed
// configuration, exiting nonzero if it cannot be timed.
func staCircuit(name string, cfg *fabric.ArrayConfig) {
	rep, err := fabric.Timing(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fplstat: %s: timing: %v\n", name, err)
		os.Exit(1)
	}
	rep.Name = name
	fmt.Printf("  %s\n", indentReport(rep.String()))
}

// indentReport keeps multi-line reports aligned under the stats table.
func indentReport(s string) string {
	out := make([]byte, 0, len(s)+16)
	for i := 0; i < len(s); i++ {
		out = append(out, s[i])
		if s[i] == '\n' {
			out = append(out, ' ', ' ')
		}
	}
	return string(out)
}
