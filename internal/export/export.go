// Package export implements the export side of Quarry's Communication
// & Metadata layer (§2.5): translating the logical xLM representation
// of an ETL process into external notations. The paper names SQL and
// Apache PigLatin (following the engine-independence work of [7]);
// both are provided here, with a Graphviz rendering of the flow, next
// to the Pentaho PDI exporter of internal/pdi.
package export

import (
	"errors"
	"fmt"

	"quarry/internal/xlm"
)

// ErrUnknownNotation is what Export wraps when no notation has the
// name asked for.
var ErrUnknownNotation = errors.New("export: no exporter")

// notations renders a validated design, by notation name; a renderer
// must not mutate the design.
var notations = map[string]func(*xlm.Design) (string, error){
	"dot": toDot,
	"pig": toPig,
	"sql": toSQL,
}

// Export renders a design in the named notation: "dot", "pig" or
// "sql".
func Export(name string, d *xlm.Design) (string, error) {
	render, ok := notations[name]
	if !ok {
		return "", fmt.Errorf("%w %q (have dot, pig, sql)", ErrUnknownNotation, name)
	}
	if err := d.Validate(); err != nil {
		return "", err
	}
	return render(d)
}
