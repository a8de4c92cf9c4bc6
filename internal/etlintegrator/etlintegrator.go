// Package etlintegrator implements Quarry's ETL Process Integrator:
// the incremental consolidation of partial ETL flows into a unified
// flow answering all requirements processed so far (§2.3, after [5]).
//
// For each new partial flow the integrator maximises reuse by walking
// the partial design in topological order and, for every operation,
// looking for an existing unified operation with the same canonical
// signature fed by the same (already matched) inputs. When the
// direct match fails, it aligns operation order by applying generic
// equivalence rules — selections commute with other row-wise
// operations — hoisting an equivalent downstream selection up the
// unified flow to expose the match (which simultaneously pushes the
// selection towards the sources). Remaining operations are attached
// as new branches. A configurable cost model (quality.ETLCostModel)
// quantifies the integration benefit: the unified flow's estimated
// execution time versus running the flows separately.
package etlintegrator

import (
	"fmt"
	"sort"
	"strings"

	"quarry/internal/expr"
	"quarry/internal/quality"
	"quarry/internal/xlm"
)

// Report summarises one integration step.
type Report struct {
	// Reused counts partial operations matched to existing unified
	// operations; Added counts operations copied in as new; Hoisted
	// counts equivalence-rule reorderings applied.
	Reused  int
	Added   int
	Hoisted int
	// Mapping maps every partial node name to its unified node name.
	Mapping map[string]string
	// CostBefore/CostAfter estimate the unified flow before and after
	// integration; CostSeparate estimates executing the previous
	// unified flow and the partial flow independently (the baseline
	// the paper's demo compares against).
	CostBefore   float64
	CostAfter    float64
	CostSeparate float64
}

// ReuseRatio is the fraction of partial operations that were matched
// rather than copied.
func (r *Report) ReuseRatio() float64 {
	total := r.Reused + r.Added
	if total == 0 {
		return 0
	}
	return float64(r.Reused) / float64(total)
}

// Integrator consolidates partial ETL designs.
type Integrator struct {
	cost    quality.ETLCostModel
	reorder bool
	// equivalent is the direct-reuse search: findEquivalent, which a
	// test holds to the scan it replaced.
	equivalent func(d *xlm.Design, p *xlm.Node, mappedInputs []string) string
}

// New creates an integrator. A nil cost model disables cost
// reporting; reorder enables the equivalence-rule alignment.
func New(cost quality.ETLCostModel, reorder bool) *Integrator {
	return &Integrator{cost: cost, reorder: reorder, equivalent: findEquivalent}
}

// Integrate consolidates the partial flow into the unified one and
// returns the new unified design; inputs are not mutated. A nil
// unified design starts a fresh flow.
func (it *Integrator) Integrate(unified, partial *xlm.Design) (*xlm.Design, *Report, error) {
	if partial == nil {
		return nil, nil, fmt.Errorf("etlintegrator: nil partial design")
	}
	if err := partial.Validate(); err != nil {
		return nil, nil, fmt.Errorf("etlintegrator: partial design invalid: %w", err)
	}
	rep := &Report{Mapping: map[string]string{}}
	if unified == nil || len(unified.Nodes()) == 0 {
		out := partial.Clone()
		out.Name = "etl_unified"
		mergeRequirementMetadata(out, nil, partial)
		rep.Added = len(out.Nodes())
		for _, n := range out.Nodes() {
			rep.Mapping[n.Name] = n.Name
		}
		if it.cost != nil {
			c, _, err := it.cost.Estimate(out)
			if err != nil {
				return nil, nil, err
			}
			rep.CostAfter, rep.CostSeparate = c, c
		}
		return out, rep, nil
	}
	if err := unified.Validate(); err != nil {
		return nil, nil, fmt.Errorf("etlintegrator: unified design invalid: %w", err)
	}
	out := unified.Clone()
	out.Name = "etl_unified"
	mergeRequirementMetadata(out, unified, partial)

	if it.cost != nil {
		before, _, err := it.cost.Estimate(unified)
		if err != nil {
			return nil, nil, err
		}
		partCost, _, err := it.cost.Estimate(partial)
		if err != nil {
			return nil, nil, err
		}
		rep.CostBefore = before
		rep.CostSeparate = before + partCost
	}

	order, err := partial.TopoSort()
	if err != nil {
		return nil, nil, err
	}
	for _, p := range order {
		inputs := partial.Inputs(p.Name)
		mappedInputs := make([]string, len(inputs))
		for i, in := range inputs {
			mi, ok := rep.Mapping[in.Name]
			if !ok {
				return nil, nil, fmt.Errorf("etlintegrator: internal: input %q of %q not yet mapped", in.Name, p.Name)
			}
			mappedInputs[i] = mi
		}
		// Direct reuse: same signature, same ordered inputs.
		if u := it.equivalent(out, p, mappedInputs); u != "" {
			rep.Mapping[p.Name] = u
			rep.Reused++
			continue
		}
		// Equivalence-rule alignment: hoist a matching downstream
		// selection up to the mapped input.
		if it.reorder && p.Type == xlm.OpSelection && len(mappedInputs) == 1 {
			if s := it.hoistSelection(out, p, mappedInputs[0]); s != "" {
				rep.Mapping[p.Name] = s
				rep.Reused++
				rep.Hoisted++
				continue
			}
		}
		// No reuse: copy the operation in as a new node.
		name := uniqueName(out, p.Name)
		nn := &xlm.Node{Name: name, Type: p.Type, Optype: p.Optype}
		nn.Fields = append([]xlm.Field(nil), p.Fields...)
		nn.Params = map[string]string{}
		for k, v := range p.Params {
			nn.Params[k] = v
		}
		if err := out.AddNode(nn); err != nil {
			return nil, nil, err
		}
		for _, mi := range mappedInputs {
			if err := out.AddEdge(mi, name); err != nil {
				return nil, nil, err
			}
		}
		rep.Mapping[p.Name] = name
		rep.Added++
	}
	if err := out.Validate(); err != nil {
		return nil, nil, fmt.Errorf("etlintegrator: integrated design invalid: %w", err)
	}
	if it.cost != nil {
		after, _, err := it.cost.Estimate(out)
		if err != nil {
			return nil, nil, err
		}
		rep.CostAfter = after
	}
	return out, rep, nil
}

// findEquivalent searches for a unified node with the same signature
// and the same ordered inputs.
func findEquivalent(d *xlm.Design, p *xlm.Node, mappedInputs []string) string {
	sig := p.Signature()
	for _, u := range d.Nodes() {
		// A signature starts with the node's type, which holds no '|':
		// a node of another type cannot match, and building its
		// signature (sorting its parameters, parsing its predicate) is
		// skipped.
		if u.Type != p.Type || u.Signature() != sig {
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

// hoistSelection looks for a selection equivalent to p downstream of
// the anchor node through a linear chain of row-wise operations
// (selections and functions with single consumers) and, if found,
// hoists it to sit directly after the anchor. This is the generic
// equivalence rule of [5]: a selection commutes with any operation
// that neither drops nor creates the attributes it references —
// guaranteed here by requiring the predicate to be evaluable on the
// anchor's output schema.
func (it *Integrator) hoistSelection(d *xlm.Design, p *xlm.Node, anchor string) string {
	anchorNode, ok := d.Node(anchor)
	if !ok {
		return ""
	}
	predOK := func(sel *xlm.Node) bool {
		pred, err := sel.Predicate()
		if err != nil {
			return false
		}
		for _, id := range expr.Idents(pred) {
			if _, has := anchorNode.Field(id); !has {
				return false
			}
		}
		return true
	}
	sig := p.Signature()
	// Walk every linear chain leaving the anchor.
	for _, start := range d.Outputs(anchor) {
		cur := start
		for {
			if cur.Type == xlm.OpSelection && cur.Signature() == sig && predOK(cur) {
				if cur.Name == "" {
					return ""
				}
				// Direct child needs no hoisting (the caller's direct
				// match would have found it with identical inputs);
				// still handle it uniformly.
				if hoist(d, anchor, start.Name, cur.Name) {
					return cur.Name
				}
				return ""
			}
			// Continue only through commuting, linear, single-consumer
			// row-wise operations.
			if cur.Type != xlm.OpSelection && cur.Type != xlm.OpFunction {
				break
			}
			outs := d.Outputs(cur.Name)
			if len(outs) != 1 || len(d.Inputs(cur.Name)) != 1 {
				break
			}
			cur = outs[0]
		}
	}
	return ""
}

// hoist splices sel out of its position and re-inserts it between
// anchor and chainStart. All intermediate chain nodes must have a
// single consumer (verified during the walk). Returns false when the
// graph shape is unexpected.
func hoist(d *xlm.Design, anchor, chainStart, sel string) bool {
	if chainStart == sel {
		return true // already directly after the anchor
	}
	selInputs := d.Inputs(sel)
	if len(selInputs) != 1 {
		return false
	}
	x := selInputs[0].Name
	consumers := d.Outputs(sel)
	// Splice out: x → (sel's consumers).
	d.RemoveEdgeBetween(x, sel)
	for _, y := range consumers {
		d.RemoveEdgeBetween(sel, y.Name)
		if err := d.AddEdge(x, y.Name); err != nil {
			return false
		}
	}
	// Re-insert: anchor → sel → chainStart.
	d.RemoveEdgeBetween(anchor, chainStart)
	if err := d.AddEdge(anchor, sel); err != nil {
		return false
	}
	if err := d.AddEdge(sel, chainStart); err != nil {
		return false
	}
	return true
}

// uniqueName returns name, or name with a numeric suffix when taken.
func uniqueName(d *xlm.Design, name string) string {
	if _, exists := d.Node(name); !exists {
		return name
	}
	for i := 2; ; i++ {
		cand := fmt.Sprintf("%s__%d", name, i)
		if _, exists := d.Node(cand); !exists {
			return cand
		}
	}
}

// mergeRequirementMetadata accumulates the requirement IDs answered
// by the unified flow in metadata["requirements"].
func mergeRequirementMetadata(out, unified, partial *xlm.Design) {
	set := map[string]bool{}
	collect := func(d *xlm.Design) {
		if d == nil {
			return
		}
		if v := d.Metadata["requirements"]; v != "" {
			for _, r := range strings.Split(v, ",") {
				set[r] = true
			}
		}
		if v := d.Metadata["requirement"]; v != "" {
			set[v] = true
		}
	}
	collect(unified)
	collect(partial)
	ids := make([]string, 0, len(set))
	for r := range set {
		ids = append(ids, r)
	}
	sort.Strings(ids)
	out.Metadata["requirements"] = strings.Join(ids, ",")
	delete(out.Metadata, "requirement")
}
