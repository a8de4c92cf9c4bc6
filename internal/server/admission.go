// SLO-driven admission control: the serving layer's defence against
// overload. Every OLAP answer class has a wildly different cost
// (result-cache hit ≪ materialized aggregate ≪ fast path ≪ dice ≈
// oracle), so under pressure the server refuses the cheap-to-refuse
// expensive work with 429 + Retry-After instead of letting every
// request time out together.
//
// The controller tracks a per-class EWMA of execution time (and of
// its variance — admission charges mean + 2 sigma, since a class is a
// mix of shapes and charging the mean over-admits whenever the cheap
// shape is hot) and a running "backlog" — the summed predicted cost
// of every admitted but unfinished query. An arriving request's queue
// wait is projected as backlog spread over the executor width; when
// that projection plus the request's own per-class cost blows the
// configured SLO, the request is shed.
// Because the projection includes the arriving class's own cost,
// expensive classes blow the budget at a lower backlog than cheap
// ones — the most expensive class is refused first as load rises,
// with no explicit priority table. Result-cache hits never reach the
// controller at all: they are answered before the query pool and are
// always admitted.
package server

import (
	"math"
	"sync"
	"time"

	"quarry/internal/olap"
)

// queryClass indexes the controller's per-class tables.
type queryClass int

const (
	classCacheHit queryClass = iota
	classMatAgg
	classFast
	classDice
	classOracle
	numClasses
)

// classNames maps queryClass to the olap.Class* wire names.
var classNames = [numClasses]string{
	olap.ClassCacheHit, olap.ClassMatAgg, olap.ClassFast, olap.ClassDice, olap.ClassOracle,
}

// classOf maps an executor-stamped class name back to its index; an
// unknown name costs like the fast path.
func classOf(name string) queryClass {
	for c, n := range classNames {
		if n == name {
			return queryClass(c)
		}
	}
	return classFast
}

// predictClass classifies an arriving request before execution. An
// oracle request runs the star-flow executor, a dice runs its fixpoint
// over the folded cells; everything else is predicted as the base fast
// path — the conservative choice, since the only cheaper
// outcome (a materialized-aggregate rewrite) cannot be known until
// the planner runs, and the EWMA attribution on completion uses the
// class that actually answered.
func predictClass(oracle bool, dice bool) queryClass {
	switch {
	case oracle:
		return classOracle
	case dice:
		return classDice
	default:
		return classFast
	}
}

// ewmaAlpha is the per-observation weight of the service-time EWMA:
// heavy enough to track a warming cache or a republish-induced cost
// shift within tens of queries, light enough that one outlier does
// not swing admission.
const ewmaAlpha = 0.2

// ewmaPriorNs seeds each class's service-time estimate before any
// observation (rough SF-5 shape, in ns). Priors only steer the first
// few admissions; real observations dominate within ~1/alpha queries.
var ewmaPriorNs = [numClasses]float64{
	classCacheHit: float64(5 * time.Microsecond),
	classMatAgg:   float64(50 * time.Microsecond),
	classFast:     float64(250 * time.Microsecond),
	classDice:     float64(500 * time.Microsecond),
	classOracle:   float64(500 * time.Microsecond),
}

// admission is the controller. All state sits under one short-held
// mutex: admit/done do a handful of float ops, never I/O.
type admission struct {
	slo   time.Duration // 0 disables shedding
	width int           // executor parallelism (the OLAP pool size)

	mu        sync.Mutex
	ewmaNs    [numClasses]float64
	ewmaVar   [numClasses]float64 // EWMA of squared deviation (ns²)
	served    [numClasses]int64   // completed queries per actual class
	shed      [numClasses]int64   // refused requests per predicted class
	inflight  [numClasses]int64   // admitted, not yet done, per predicted class
	backlogNs float64             // summed predicted cost of inflight work
}

// chargeLocked is the cost an arriving request of class c is admitted
// against: the class mean plus two sigma of an exponentially-weighted
// variance. Charging the MEAN is what the mean cannot survive — a
// class like "fast" spans a cheap hot rollup and a wide cross
// group-by, the EWMA tracks whichever shape is hot, and a dip
// over-admits a deep queue whose expensive members then drain for
// multiples of the SLO (a shed/over-admit limit cycle). Charging
// pessimistically keeps the backlog honest for the mix actually
// queued; for a homogeneous class the variance is ~0 and the charge
// degrades to the mean.
func (a *admission) chargeLocked(c queryClass) float64 {
	return a.ewmaNs[c] + 2*math.Sqrt(a.ewmaVar[c])
}

// ticket is one admitted request's charge against the backlog; it
// must be settled exactly once via done.
type ticket struct {
	class    queryClass // predicted class (the charge key)
	chargeNs float64
}

func newAdmission(slo time.Duration, width int) *admission {
	if width < 1 {
		width = 1
	}
	a := &admission{slo: slo, width: width}
	a.ewmaNs = ewmaPriorNs
	return a
}

// admit decides one arriving request. Admitted requests get a ticket
// charging their predicted cost to the backlog; refused ones get the
// suggested Retry-After and the projected wait that condemned them.
func (a *admission) admit(c queryClass) (t ticket, ok bool, retryAfter, projected time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	wait := a.backlogNs / float64(a.width)
	cost := a.chargeLocked(c)
	if proj := wait + cost; a.slo > 0 && wait > 0 && proj > float64(a.slo) {
		a.shed[c]++
		// Suggest coming back once the excess backlog should have
		// drained; HTTP Retry-After is whole seconds, so floor at 1.
		excess := time.Duration(proj - float64(a.slo))
		ra := time.Duration(math.Ceil(excess.Seconds())) * time.Second
		if ra < time.Second {
			ra = time.Second
		}
		return ticket{}, false, ra, time.Duration(proj)
	}
	a.backlogNs += cost
	a.inflight[c]++
	return ticket{class: c, chargeNs: cost}, true, 0, time.Duration(wait)
}

// done settles a ticket: the backlog charge is released, and — when
// the query actually ran (execNs >= 0) — the observed execution time
// feeds the EWMA of the class that really answered (which may be
// cheaper than predicted, e.g. a materialized-aggregate rewrite).
// Queue-abandoned requests pass execNs < 0: they burned no executor
// time, so they must not drag the estimate down.
func (a *admission) done(t ticket, actual queryClass, execNs int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.backlogNs -= t.chargeNs
	// Clamp below one nanosecond, not just below zero: charges are
	// floats, so a drained backlog can be left holding rounding dust
	// (~1e-7 ns), and the admit path treats ANY positive backlog as "a
	// queue exists". With a pessimistic per-class charge above the SLO
	// that dust would shed every request on an idle server — a total
	// lockout observed in overload testing.
	if a.backlogNs < 1 {
		a.backlogNs = 0
	}
	a.inflight[t.class]--
	if execNs >= 0 {
		a.observeLocked(actual, execNs)
	}
}

// observe records a service time for a class outside the
// ticket/backlog flow (cache hits, which never hold a ticket).
func (a *admission) observe(c queryClass, execNs int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.observeLocked(c, execNs)
}

func (a *admission) observeLocked(c queryClass, execNs int64) {
	delta := float64(execNs) - a.ewmaNs[c]
	a.ewmaNs[c] += ewmaAlpha * delta
	// West-style EW variance: delta against the old mean times delta
	// against the new keeps the estimate unbiased under drift.
	a.ewmaVar[c] += ewmaAlpha * (delta*(float64(execNs)-a.ewmaNs[c]) - a.ewmaVar[c])
	if a.ewmaVar[c] < 0 {
		a.ewmaVar[c] = 0
	}
	a.served[c]++
}

// classStats is one class's slice of the admission stats.
type classStats struct {
	// EWMAMicros is the current execution-time estimate.
	EWMAMicros float64 `json:"ewma_us"`
	// SigmaMicros is the EW standard deviation of that estimate;
	// admission charges mean + 2 sigma (see chargeLocked).
	SigmaMicros float64 `json:"sigma_us"`
	// Served counts completed queries answered by this class.
	Served int64 `json:"served"`
	// Shed counts requests refused while predicted as this class.
	Shed int64 `json:"shed"`
	// Inflight is the current admitted-but-unfinished occupancy.
	Inflight int64 `json:"inflight"`
}

// admissionStats is the admin view (GET /api/olap/stats).
type admissionStats struct {
	SLOTargetMs     float64               `json:"slo_target_ms"`
	Width           int                   `json:"width"`
	ProjectedWaitMs float64               `json:"projected_wait_ms"`
	Classes         map[string]classStats `json:"classes"`
}

func (a *admission) stats() admissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := admissionStats{
		SLOTargetMs:     float64(a.slo) / float64(time.Millisecond),
		Width:           a.width,
		ProjectedWaitMs: a.backlogNs / float64(a.width) / float64(time.Millisecond),
		Classes:         make(map[string]classStats, numClasses),
	}
	for c := queryClass(0); c < numClasses; c++ {
		out.Classes[classNames[c]] = classStats{
			EWMAMicros:  a.ewmaNs[c] / float64(time.Microsecond),
			SigmaMicros: math.Sqrt(a.ewmaVar[c]) / float64(time.Microsecond),
			Served:      a.served[c],
			Shed:        a.shed[c],
			Inflight:    a.inflight[c],
		}
	}
	return out
}
