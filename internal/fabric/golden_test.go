package fabric

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/stock_golden.txt from the current code")

// stockLibrary is the ten-circuit stock library, in fplstat's order.
var stockLibrary = []struct {
	name string
	mk   func() *Netlist
}{
	{"pass32", Passthrough32},
	{"xor32", Xor32},
	{"add32", Adder32},
	{"popcount32", Popcount32},
	{"crc32step", CRC32Step},
	{"satadd16", SatAdd16},
	{"seqmul16", SeqMul16},
	{"alphablend", AlphaBlend},
	{"barrel32", BarrelShift32},
	{"lfsr32", LFSR32},
}

// digest renders v with %v and returns its SHA-256, for pinning long
// lists without committing them verbatim.
func digest(v any) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%v", v))))
}

// stockGolden renders everything about one optimised stock circuit that
// depends on the order the LUT graph is walked in: the netlist
// evaluation order, its stats, the placed bitstream (placement follows
// that order), the compiled op lists of both init schedules and of the
// burst (which follow the configuration's order) and the lint and
// timing reports.
func stockGolden(t *testing.T, name string, mk func() *Netlist) string {
	n := mk()
	Optimize(n)
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", name)
	order, err := n.Levelize()
	if err != nil {
		t.Fatalf("%s: levelize: %v", name, err)
	}
	fmt.Fprintf(&b, "levelize: %v\n", order)
	fmt.Fprintf(&b, "stats: %+v\n", n.Stats())
	cfg, _, err := Place(n, DefaultPFUSpec)
	if err != nil {
		t.Fatalf("%s: place: %v", name, err)
	}
	bits, err := EncodeStatic(cfg)
	if err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	fmt.Fprintf(&b, "bitstream-sha256: %x\n", sha256.Sum256(bits))
	prog, err := Compile(cfg)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	scheds := []struct {
		name string
		s    *schedule
	}{{"init=0", &prog.sched[0]}, {"init=1", &prog.sched[1]}}
	if prog.burstK > 0 {
		scheds = append(scheds, struct {
			name string
			s    *schedule
		}{fmt.Sprintf("burst(%d)", prog.burstK), &prog.burst})
	}
	for _, sc := range scheds {
		s := sc.s
		fmt.Fprintf(&b, "comb-ops %s: %d %s\n", sc.name, len(s.tab), digest([]any{s.out0, s.in, s.tab, s.wit}))
		fmt.Fprintf(&b, "latches %s: %d/%d %s\n", sc.name, len(s.refresh), len(s.latch), digest([2][]regMove{s.refresh, s.latch}))
	}
	lr, err := Lint(n)
	if err != nil {
		t.Fatalf("%s: lint: %v", name, err)
	}
	fmt.Fprintf(&b, "lint: %+v %q\n", lr.Stats, lr.String())
	cr, err := LintConfig(cfg)
	if err != nil {
		t.Fatalf("%s: lint config: %v", name, err)
	}
	fmt.Fprintf(&b, "lint-config: %+v %q\n", cr.Stats, cr.String())
	tr, err := Timing(cfg)
	if err != nil {
		t.Fatalf("%s: timing: %v", name, err)
	}
	fmt.Fprintf(&b, "timing: %q\n", tr.String())
	fmt.Fprintf(&b, "timing-endpoints: %d %s\n", len(tr.Endpoints), digest(tr.Endpoints))
	return b.String()
}

// TestStockLibraryGolden pins, for every stock circuit, each output that
// depends on LUT-graph walk order: Levelize order, Stats, the SHA-256 of
// the placed static bitstream, the compiled op lists of each init
// schedule and the burst, and the Lint,
// LintConfig and Timing reports. Run with -update to rewrite the golden
// file after a deliberate change.
func TestStockLibraryGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range stockLibrary {
		b.WriteString(stockGolden(t, c.name, c.mk))
	}
	path := filepath.Join("testdata", "stock_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.SplitAfter(b.String(), "\n")
	wantLines := strings.SplitAfter(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("golden drift at line %d:\ngot:  %q\nwant: %q", i+1, g, w)
		}
	}
}
