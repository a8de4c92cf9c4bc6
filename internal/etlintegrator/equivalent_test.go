package etlintegrator

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"quarry/internal/interpreter"
	"quarry/internal/tpch"
	"quarry/internal/xlm"
)

// scanEquivalent is the direct-reuse search as it was before
// findEquivalent filtered by type: every unified node's signature is
// built and compared. It is the oracle findEquivalent must agree with.
func scanEquivalent(d *xlm.Design, p *xlm.Node, mappedInputs []string) string {
	sig := p.Signature()
	for _, u := range d.Nodes() {
		if u.Signature() != sig {
			continue
		}
		ins := d.Inputs(u.Name)
		if len(ins) != len(mappedInputs) {
			continue
		}
		same := true
		for i, in := range ins {
			if in.Name != mappedInputs[i] {
				same = false
				break
			}
		}
		if same {
			return u.Name
		}
	}
	return ""
}

// TestFindEquivalentMatchesScan integrates flow sequences twice, once
// through findEquivalent and once through the scan it replaced: the
// canonical requirements, 24 generated ones and 30 random linear flows
// (genLinearFlow, whose selections and functions share inputs), each
// in its order and reversed. After every step the two unified designs
// must marshal to the same bytes, node names included, and a flow one
// refuses the other must refuse alike.
func TestFindEquivalentMatchesScan(t *testing.T) {
	canonical, cost := tpchFlows(t)
	o, err := tpch.Ontology()
	if err != nil {
		t.Fatal(err)
	}
	m, err := tpch.Mapping()
	if err != nil {
		t.Fatal(err)
	}
	c, err := tpch.Catalog(10)
	if err != nil {
		t.Fatal(err)
	}
	in, err := interpreter.New(o, m, c)
	if err != nil {
		t.Fatal(err)
	}
	var generated []*xlm.Design
	for _, r := range tpch.GenerateRequirements(24) {
		if pd, err := in.Interpret(r); err == nil {
			generated = append(generated, pd.ETL)
		}
	}
	if len(generated) < 12 {
		t.Fatalf("only %d of 24 generated requirements interpret", len(generated))
	}
	r := rand.New(rand.NewSource(41))
	var linear []*xlm.Design
	for i := range 30 {
		linear = append(linear, genLinearFlow(r, fmt.Sprintf("f%d", i)))
	}
	sequences := map[string][]*xlm.Design{
		"canonical": canonical, "canonical reversed": reversed(canonical),
		"generated": generated, "generated reversed": reversed(generated),
		"linear": linear, "linear reversed": reversed(linear),
	}
	for name, flows := range sequences {
		fast, scan := New(cost, true), New(cost, true)
		scan.equivalent = scanEquivalent
		var uf, us *xlm.Design
		integrated := 0
		for i, f := range flows {
			nf, _, errF := fast.Integrate(uf, f)
			ns, _, errS := scan.Integrate(us, f)
			if (errF == nil) != (errS == nil) || errF != nil && errF.Error() != errS.Error() {
				t.Fatalf("%s, flow %d: findEquivalent: %v; the scan: %v", name, i, errF, errS)
			}
			if errS != nil {
				continue
			}
			uf, us = nf, ns
			integrated++
			bf, err := xlm.Marshal(uf)
			if err != nil {
				t.Fatal(err)
			}
			bs, err := xlm.Marshal(us)
			if err != nil {
				t.Fatal(err)
			}
			if bf != bs {
				t.Fatalf("%s, flow %d: the unified designs differ:\nfindEquivalent:\n%s\nthe scan:\n%s", name, i, bf, bs)
			}
		}
		if integrated < len(flows)/2 {
			t.Errorf("%s: only %d of %d flows integrate", name, integrated, len(flows))
		}
	}
}

func reversed(flows []*xlm.Design) []*xlm.Design {
	r := slices.Clone(flows)
	slices.Reverse(r)
	return r
}
