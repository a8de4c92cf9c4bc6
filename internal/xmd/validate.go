package xmd

import (
	"fmt"
)

// Validate checks the MD integrity constraints the paper requires of
// every produced design (soundness):
//
//   - structural integrity: unique names, resolvable references, at
//     least one measure per fact, at least one level per dimension;
//   - hierarchy strictness: the roll-up graph of every dimension is
//     acyclic and references existing levels; every fact links to a
//     dimension at one of its base (finest) levels;
//   - typing: measures are numeric with a known additivity class,
//     descriptors have known types, level keys resolve to descriptors.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("xmd: schema has no name")
	}
	dims := map[string]*Dimension{}
	for _, d := range s.Dimensions {
		if d.Name == "" {
			return fmt.Errorf("xmd: unnamed dimension")
		}
		if _, dup := dims[d.Name]; dup {
			return fmt.Errorf("xmd: duplicate dimension %q", d.Name)
		}
		dims[d.Name] = d
		if err := d.validate(); err != nil {
			return err
		}
	}
	facts := map[string]bool{}
	for _, f := range s.Facts {
		if f.Name == "" {
			return fmt.Errorf("xmd: unnamed fact")
		}
		if facts[f.Name] {
			return fmt.Errorf("xmd: duplicate fact %q", f.Name)
		}
		facts[f.Name] = true
		if len(f.Measures) == 0 {
			return fmt.Errorf("xmd: fact %q has no measures", f.Name)
		}
		seenM := map[string]bool{}
		for _, m := range f.Measures {
			if m.Name == "" {
				return fmt.Errorf("xmd: fact %q has an unnamed measure", f.Name)
			}
			if seenM[m.Name] {
				return fmt.Errorf("xmd: fact %q repeats measure %q", f.Name, m.Name)
			}
			seenM[m.Name] = true
			if m.Type != "int" && m.Type != "float" {
				return fmt.Errorf("xmd: measure %s.%s has non-numeric type %q", f.Name, m.Name, m.Type)
			}
			switch m.Additivity {
			case AdditivityFlow, AdditivityStock, AdditivityUnit:
			default:
				return fmt.Errorf("xmd: measure %s.%s has unknown additivity %q", f.Name, m.Name, m.Additivity)
			}
		}
		if len(f.Uses) == 0 {
			return fmt.Errorf("xmd: fact %q uses no dimensions", f.Name)
		}
		seenU := map[string]bool{}
		for _, u := range f.Uses {
			if seenU[u.Dimension] {
				return fmt.Errorf("xmd: fact %q links dimension %q twice", f.Name, u.Dimension)
			}
			seenU[u.Dimension] = true
			d, ok := dims[u.Dimension]
			if !ok {
				return fmt.Errorf("xmd: fact %q uses unknown dimension %q", f.Name, u.Dimension)
			}
			lvl, ok := d.Level(u.Level)
			if !ok {
				return fmt.Errorf("xmd: fact %q links dimension %q at unknown level %q", f.Name, u.Dimension, u.Level)
			}
			// Strictness at the fact boundary: the link must target a
			// base level, otherwise finer data could not populate it
			// unambiguously.
			isBase := false
			for _, b := range d.BaseLevels() {
				if b.Name == lvl.Name {
					isBase = true
					break
				}
			}
			if !isBase {
				return fmt.Errorf("xmd: fact %q links dimension %q at non-base level %q", f.Name, u.Dimension, u.Level)
			}
		}
	}
	return nil
}

func (d *Dimension) validate() error {
	if len(d.Levels) == 0 {
		return fmt.Errorf("xmd: dimension %q has no levels", d.Name)
	}
	levels := map[string]*Level{}
	for _, l := range d.Levels {
		if l.Name == "" {
			return fmt.Errorf("xmd: dimension %q has an unnamed level", d.Name)
		}
		if _, dup := levels[l.Name]; dup {
			return fmt.Errorf("xmd: dimension %q repeats level %q", d.Name, l.Name)
		}
		levels[l.Name] = l
		seenD := map[string]bool{}
		for _, desc := range l.Descriptors {
			if desc.Name == "" {
				return fmt.Errorf("xmd: level %s.%s has an unnamed descriptor", d.Name, l.Name)
			}
			if seenD[desc.Name] {
				return fmt.Errorf("xmd: level %s.%s repeats descriptor %q", d.Name, l.Name, desc.Name)
			}
			seenD[desc.Name] = true
			switch desc.Type {
			case "int", "float", "string", "bool":
			default:
				return fmt.Errorf("xmd: descriptor %s.%s.%s has unknown type %q", d.Name, l.Name, desc.Name, desc.Type)
			}
		}
		if l.Key != "" && !seenD[l.Key] {
			return fmt.Errorf("xmd: level %s.%s key %q is not a descriptor", d.Name, l.Name, l.Key)
		}
	}
	for _, r := range d.Rollups {
		if _, ok := levels[r.From]; !ok {
			return fmt.Errorf("xmd: dimension %q roll-up from unknown level %q", d.Name, r.From)
		}
		if _, ok := levels[r.To]; !ok {
			return fmt.Errorf("xmd: dimension %q roll-up to unknown level %q", d.Name, r.To)
		}
		if r.From == r.To {
			return fmt.Errorf("xmd: dimension %q has a self roll-up on %q", d.Name, r.From)
		}
	}
	if err := d.checkAcyclic(); err != nil {
		return err
	}
	if len(d.BaseLevels()) == 0 {
		return fmt.Errorf("xmd: dimension %q has no base level (roll-up cycle)", d.Name)
	}
	return nil
}

// checkAcyclic verifies hierarchy strictness: roll-ups must form a
// DAG, otherwise aggregation paths are ill-defined.
func (d *Dimension) checkAcyclic() error {
	adj := map[string][]string{}
	for _, r := range d.Rollups {
		adj[r.From] = append(adj[r.From], r.To)
	}
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(string) error
	visit = func(n string) error {
		color[n] = grey
		for _, m := range adj[n] {
			switch color[m] {
			case grey:
				return fmt.Errorf("xmd: dimension %q has a roll-up cycle through %q", d.Name, m)
			case white:
				if err := visit(m); err != nil {
					return err
				}
			}
		}
		color[n] = black
		return nil
	}
	for _, l := range d.Levels {
		if color[l.Name] == white {
			if err := visit(l.Name); err != nil {
				return err
			}
		}
	}
	return nil
}
